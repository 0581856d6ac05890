"""Hyperparameter resolution, presets and the command-line pipeline."""

import json
import re
import subprocess
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from gimirec import ablation, autodiff as ad, cli, train
from gimirec.cli import main
from gimirec.config import ConfigError, HyperParams, PRESETS, load_config
from gimirec.global_context import (AblationVariant, global_embeddings, read_adjacency,
                                    write_adjacency)
from gimirec.ingest import DatasetBundle, Sequences, load_bundle, save_bundle
from gimirec.model import cast_adjacency, forward_interests, load_checkpoint
from gimirec.recent import make_window, stack_windows
from gimirec.synthetic import PlantedConfig, planted_cluster_records, write_log

import oracles

# each removed option's one accepted value
ONE_VALUE_KEYS = {"threads": 1, "neg_distribution": "uniform", "residual": False}


def removed_option_message(key: str, got: str) -> str:
    return f"{key} must be {ONE_VALUE_KEYS[key]} (the option was removed), got {got}"


class TestConfig:
    def test_amazon_books_preset(self):
        hp = load_config(preset="amazon-books")
        assert (hp.a, hp.b) == (0.65, 0.35)
        assert (hp.alpha, hp.beta, hp.gamma) == (4.5, 2.0, 1.0)
        assert (hp.k, hp.l_time, hp.l_rec, hp.batch) == (4, 64, 20, 128)
        assert hp.d == 64 and hp.lr == 0.001 and hp.dropout == 0.1
        assert hp.neg_samples == 10

    def test_taobao_buy_preset(self):
        hp = load_config(preset="taobao-buy")
        assert (hp.a, hp.b) == (0.6, 0.4)
        assert (hp.alpha, hp.beta, hp.gamma) == (5.0, 3.0, 1.0)
        assert (hp.k, hp.l_time, hp.l_rec, hp.batch) == (8, 7, 50, 256)

    def test_amazon_hybrid_preset(self):
        hp = load_config(preset="amazon-hybrid")
        assert (hp.a, hp.b) == (0.5, 0.5)
        assert (hp.alpha, hp.beta, hp.gamma) == (5.0, 2.5, 1.0)

    def test_a_plus_b_must_be_one(self):
        with pytest.raises(ConfigError, match="a\\+b"):
            load_config(overrides=["a=0.7", "b=0.2"])

    def test_hop_weight_ordering_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_config(overrides=["alpha=1.0", "beta=2.0"])
        assert any("alpha" in str(w.message) for w in caught)

    def test_head_divisibility_fatal(self):
        with pytest.raises(ConfigError, match="n_heads"):
            load_config(overrides=["d=30", "n_heads=4"])

    def test_unknown_key_fatal(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(overrides=["bogus=1"])

    def test_file_then_override_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nk = 6\nlr = 0.01\n", encoding="utf-8")
        hp = load_config(cfg, overrides=["lr=0.02"])
        assert hp.k == 6 and hp.lr == 0.02

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIMI_SEED", "777")
        assert load_config().seed == 777
        # explicit key=value override still wins
        assert load_config(overrides=["seed=5"]).seed == 5

    @pytest.mark.parametrize("override", ["seed=-1", "threads=0", "threads=-3"])
    def test_negative_seed_and_threads_below_one_rejected(self, override):
        key, value = override.split("=")
        bound = r"1 \(the option was removed\)" if key == "threads" else ">= 0"
        with pytest.raises(ConfigError, match=f"^{key} must be {bound}, got {value}$"):
            load_config(overrides=[override])

    @pytest.mark.parametrize("override, got", [
        ("threads=0", "0"), ("threads=2", "2"), ("neg_distribution=log_uniform", "log_uniform"),
        ("neg_distribution=zipf", "zipf"), ("residual=true", "True"), ("residual=1", "True")])
    def test_one_value_keys_reject_every_other_value(self, override, got):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=f"^{re.escape(removed_option_message(key, got))}$"):
            load_config(overrides=[override])
        only = load_config(overrides=[f"{key}={str(ONE_VALUE_KEYS[key]).lower()}"])
        assert getattr(only, key) == ONE_VALUE_KEYS[key]

    @pytest.mark.parametrize("overrides", [["a=-0.5", "b=1.5"], ["alpha=-1"], ["beta=-1"],
                                           ["gamma=-1"]])
    def test_negative_weight_rejected(self, overrides):
        key, value = overrides[0].split("=")
        with pytest.raises(ConfigError, match=f"^{key} must be finite and >= 0, "
                                              f"got {float(value)}$"):
            load_config(overrides=overrides)

    def test_zero_hop_weight_only_warns(self):
        with pytest.warns(UserWarning, match="alpha >= beta >= gamma > 0"):
            assert load_config(overrides=["gamma=0"]).gamma == 0

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_env_seed_must_be_a_non_negative_integer(self, monkeypatch, value):
        monkeypatch.setenv("GIMI_SEED", value)
        with pytest.raises(ConfigError, match=f"^GIMI_SEED must be a non-negative "
                                              f"integer, got '{value}'$"):
            load_config()

    def test_variant_parsing(self):
        hp = load_config(overrides=["variant=no_IN"])
        assert hp.variant is AblationVariant.NO_IN
        with pytest.raises(ConfigError):
            load_config(overrides=["variant=nope"])

    def test_defaults_validate(self):
        HyperParams().validate()

    @pytest.mark.parametrize("key", ["eval_every", "time_unit_seconds",
                                     "n_heads", "d", "lr", "k", "l_time", "l_rec",
                                     "n_layers", "neg_samples", "batch"])
    def test_zero_count_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            load_config(overrides=[f"{key}=0"])

    @pytest.mark.parametrize("override, match", [
        ("max_steps=-1", "neg_samples/batch must be >= 1 and max_steps >= 0"),
        ("dropout=1", r"dropout must be in \[0, 1\), got 1.0"),
        ("dropout=-0.1", r"dropout must be in \[0, 1\), got -0.1"),
        ("dtype=float16", "dtype must be float32 or float64, got float16"),
        ("allow_self_pairs=maybe", "bad value for allow_self_pairs: 'maybe'"),
        ("k", "override must look like key=value, got 'k'")])
    def test_value_out_of_range_rejected(self, override, match):
        with pytest.raises(ConfigError, match=f"^{match}$"):
            load_config(overrides=[override])

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="^unknown preset 'nope'; choose from "):
            load_config(preset="nope")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["a", "b", "alpha", "beta", "gamma", "lr"])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            load_config(overrides=[f"{key}={value}"])

    def test_all_presets_echo_into_config(self):
        for name, preset in PRESETS.items():
            hp = load_config(preset=name)
            for key, value in preset.items():
                assert getattr(hp, key) == value, (name, key)


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = PlantedConfig(n_clusters=3, items_per_cluster=10, n_users=40,
                        n_hot_items=6, n_tail_items=40,
                        cluster_draw_frac=(0.6, 0.9))
    write_log(root / "log.csv", planted_cluster_records(cfg, seed=3))
    return root


SMALL = ["--set", "d=8", "--set", "k=2", "--set", "l_rec=6", "--set", "l_time=4",
         "--set", "n_layers=1", "--set", "n_heads=2", "--set", "batch=8",
         "--set", "max_steps=12", "--set", "eval_every=6", "--set",
         "neg_samples=4", "--set", "seed=5", "--set", "threads=1"]
ABLATE = [*SMALL, "--set", "l_time=3", "--set", "max_steps=6", "--set", "eval_every=6"]


class TestCliPipeline:
    def test_full_pipeline(self, mini_corpus, capsys):
        root = mini_corpus
        assert main(["prepare", "--input", str(root / "log.csv"),
                     "--out", str(root / "bundle"), "--set", "seed=5"]) == 0
        for name in ("vocab.tsv", "sequences.bin", "split.json", "users.tsv"):
            assert (root / "bundle" / name).exists()

        assert main(["gce", "--bundle", str(root / "bundle"),
                     "--out", str(root / "gce"), *SMALL]) == 0
        assert (root / "gce" / "adjacency.bin").exists()
        assert (root / "gce" / "global_emb.f32").exists()

        assert main(["train", "--bundle", str(root / "bundle"),
                     "--adjacency", str(root / "gce" / "adjacency.bin"),
                     "--out", str(root / "run"), *SMALL]) == 0
        assert (root / "run" / "checkpoint.bin").exists()
        assert (root / "run" / "train_log.txt").exists()

        capsys.readouterr()
        assert main(["eval", "--bundle", str(root / "bundle"),
                     "--checkpoint", str(root / "run" / "checkpoint.bin"),
                     "--adjacency", str(root / "gce" / "adjacency.bin"),
                     "--split", "test", "--n", "3,5",
                     "--out", str(root / "report.json"), *SMALL]) == 0
        payload = json.loads((root / "report.json").read_text())
        assert set(payload["metrics"]) == {"3", "5"}
        assert payload["config"]["d"] == 8
        assert "build" in payload and payload["build"]["package"] == "gimirec"

        capsys.readouterr()
        assert main(["recommend", "--bundle", str(root / "bundle"),
                     "--checkpoint", str(root / "run" / "checkpoint.bin"),
                     "--adjacency", str(root / "gce" / "adjacency.bin"),
                     "--users", "0,1", "-n", "3", *SMALL]) == 0
        out = capsys.readouterr().out
        assert out.count("user ") == 2

    # recommend keeps its defect-only test ids
    @pytest.mark.parametrize("command, defect, match", [
        (command, defect, match) for command in ("recommend", "eval")
        for defect, match in (
            ("asymmetric", "must be symmetric"),
            ("extra_row", "has 42 rows but .* has 41 items"),
            ("overflow", "adjacency value overflows float32"),
        )], ids=["asymmetric", "extra_row", "overflow",
                 "eval-asymmetric", "eval-extra_row", "eval-overflow"])
    def test_recommend_rejects_adjacency_not_matching_checkpoint(
            self, mini_corpus, tmp_path, capsys, command, defect, match):
        root = mini_corpus
        bundle = tmp_path / "bundle"
        assert main(["prepare", "--input", str(root / "log.csv"),
                     "--out", str(bundle), "--set", "seed=5"]) == 0
        assert main(["gce", "--bundle", str(bundle), "--out", str(bundle),
                     *SMALL]) == 0
        assert main(["train", "--bundle", str(bundle), "--out", str(tmp_path),
                     *SMALL, "--set", "max_steps=0"]) == 0
        good = read_adjacency(bundle / "adjacency.bin")
        bad = good.copy()
        rows = np.repeat(np.arange(good.shape[0]), np.diff(good.indptr))
        if defect == "asymmetric":
            bad.data[np.flatnonzero(rows != good.indices)[0]] *= 2.0
        elif defect == "overflow":  # finite in f64, inf once cast to f32
            bad.data[np.flatnonzero(rows == good.indices)[1]] = 1e300
        else:
            bad = sp.block_diag([good, sp.identity(1)]).tocsr()
        adj_path = tmp_path / f"{defect}.bin"
        write_adjacency(adj_path, SimpleNamespace(a_norm=bad))
        ckpt_path = tmp_path / "checkpoint.bin"
        report = tmp_path / "report.json"
        args = {"recommend": ["--users", "0", "-n", "3"], "eval": ["--out", str(report)]}
        capsys.readouterr()
        assert main([command, "--bundle", str(bundle), "--checkpoint", str(ckpt_path),
                     "--adjacency", str(adj_path), *args[command], *SMALL]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not report.exists()
        assert str(adj_path) in err and str(ckpt_path) in err
        assert re.search(match, err), err

    def test_recommend_several_users_prints_per_user_output(
            self, mini_corpus, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(["prepare", "--input", str(mini_corpus / "log.csv"),
                     "--out", str(bundle), "--set", "seed=5"]) == 0
        assert main(["gce", "--bundle", str(bundle), "--out", str(bundle),
                     *SMALL]) == 0
        assert main(["train", "--bundle", str(bundle), "--out", str(tmp_path),
                     *SMALL]) == 0
        common = ["recommend", "--bundle", str(bundle),
                  "--checkpoint", str(tmp_path / "checkpoint.bin"), *SMALL]

        def run(users, n):
            capsys.readouterr()
            code = main([*common, "--users", ",".join(map(str, users)), "-n", str(n)])
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        loaded = load_bundle(bundle)
        counts = [loaded.split.item_vocab.num_real - len(set(s.items.tolist()))
                  for s in loaded.sequences]
        low = int(np.argmin(counts))
        high = np.argsort(counts)[::-1][:2].tolist()
        assert counts[low] < counts[high[1]]

        users = [high[0], low, high[1]]
        n = counts[low]
        solo = [run([u], n) for u in users]
        assert all(code == 0 and err == "" for code, _, err in solo)
        assert run(users, n) == (0, "".join(out for _, out, _ in solo), "")

        # one more than the middle user's candidates: the first user's list,
        # then that user's error
        n = counts[low] + 1
        first, middle = run(users[:1], n), run(users[1:2], n)
        assert middle[0] == 1
        assert "cannot rank" in middle[2]
        assert run(users, n) == (1, first[1], middle[2])

    def test_recommend_prints_the_per_row_forward_lines(self, mini_corpus, tmp_path,
                                                        capsys):
        # recommend reads its window rows from the table it ranks against;
        # the lines equal those of the adjacency-row forward pass and a
        # per-user scan
        bundle = tmp_path / "bundle"
        assert main(["prepare", "--input", str(mini_corpus / "log.csv"),
                     "--out", str(bundle), "--set", "seed=5"]) == 0
        assert main(["gce", "--bundle", str(bundle), "--out", str(bundle),
                     *SMALL]) == 0
        assert main(["train", "--bundle", str(bundle), "--out", str(tmp_path),
                     *SMALL]) == 0
        users = [3, 0, 17]
        capsys.readouterr()
        assert main(["recommend", "--bundle", str(bundle),
                     "--checkpoint", str(tmp_path / "checkpoint.bin"),
                     "--users", ",".join(map(str, users)), "-n", "5", *SMALL]) == 0
        out = capsys.readouterr().out

        loaded = load_bundle(bundle)
        params = load_checkpoint(tmp_path / "checkpoint.bin")
        a_norm = cast_adjacency(read_adjacency(bundle / "adjacency.bin"), params.dtype)
        e_global = global_embeddings(a_norm, params.item_table.data)
        expect = []
        for u in users:
            seq = loaded.sequences[u]
            items, buckets, mask = stack_windows(
                [make_window(seq, len(seq) + 1, 6)], 4,
                HyperParams().time_unit_seconds)
            with ad.no_grad():
                vectors = forward_interests(params, a_norm, items, buckets, mask)[0]
            ranked = oracles.top_n_per_user(vectors.data[0], e_global, 5,
                                            set(seq.items.tolist()))
            names = [loaded.split.item_vocab.index_to_raw[int(i)] for i in ranked]
            expect.append(f"user {u} ({loaded.user_ids[u]}): {' '.join(names)}\n")
        assert out == "".join(expect)

    @pytest.mark.parametrize("cutoffs, named", [("0", "0"), ("5,0", "5, 0"),
                                                ("-3", "-3")])
    def test_eval_rejects_cutoff_below_one(self, mini_corpus, tmp_path, capsys,
                                           cutoffs, named):
        bundle = tmp_path / "bundle"
        assert main(["prepare", "--input", str(mini_corpus / "log.csv"),
                     "--out", str(bundle), "--set", "seed=5"]) == 0
        assert main(["gce", "--bundle", str(bundle), "--out", str(bundle),
                     *SMALL]) == 0
        assert main(["train", "--bundle", str(bundle), "--out", str(tmp_path),
                     *SMALL, "--set", "max_steps=0"]) == 0
        capsys.readouterr()
        assert main(["eval", "--bundle", str(bundle),
                     "--checkpoint", str(tmp_path / "checkpoint.bin"),
                     "--n", cutoffs, *SMALL]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cutoffs must be at least 1, got {named}\n"

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_recommend_rejects_list_length_below_one(self, tmp_path, capsys, n):
        # checked before any file is read; 0 used to print an empty list
        assert main(["recommend", "--bundle", str(tmp_path / "no_bundle"),
                     "--checkpoint", str(tmp_path / "no_checkpoint.bin"),
                     "--users", "0", "-n", n, *SMALL]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: -n must be at least 1, got {n}\n"

    @pytest.mark.parametrize("command", [
        ["prepare", "--input", "log.csv", "--out", "bundle"],
        ["train", "--bundle", "bundle", "--out", "run"],
        ["eval", "--bundle", "bundle", "--checkpoint", "checkpoint.bin"]])
    @pytest.mark.parametrize("override, env", [("seed=-1", None), ("threads=0", None),
                                               ("threads=-3", None), (None, "-1")])
    def test_negative_seed_and_threads_below_one_rejected(self, tmp_path, capsys,
                                                          monkeypatch, command,
                                                          override, env):
        # rejected before any file is read
        monkeypatch.chdir(tmp_path)
        if env is not None:
            monkeypatch.setenv("GIMI_SEED", env)
        assert main([*command, *(["--set", override] if override else [])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        key = override.split("=")[0] if override else "GIMI_SEED"
        assert captured.err.startswith(f"error: {key} must be ")

    @pytest.mark.parametrize("command", [
        ["eval", "--bundle", "bundle", "--checkpoint", "checkpoint.bin"],
        ["recommend", "--bundle", "bundle", "--checkpoint", "checkpoint.bin",
         "--users", "0"],
        ["train", "--bundle", "bundle", "--out", "run"]])
    @pytest.mark.parametrize("override", ["threads=2", "neg_distribution=log_uniform",
                                          "residual=true"])
    def test_removed_option_values_rejected(self, tmp_path, capsys, monkeypatch, command,
                                            override):
        # rejected before any file is read or written
        monkeypatch.chdir(tmp_path)
        assert main([*command, "--set", override]) == 1
        assert list(tmp_path.iterdir()) == []
        captured = capsys.readouterr()
        key, value = override.split("=")
        got = "True" if value == "true" else value  # the message shows the parsed value
        assert captured.out == ""
        assert captured.err == f"error: {removed_option_message(key, got)}\n"

    @pytest.mark.parametrize("command, flag, raw", [
        (["recommend", "--checkpoint", "checkpoint.bin", "-n", "3"], "--users", "1,,2"),
        (["eval", "--checkpoint", "checkpoint.bin"], "--n", "20,x"),
        (["ablate", "--out", "ablate"], "--seeds", "0,1.5")])
    def test_list_flag_not_integers_rejected(self, tmp_path, capsys, monkeypatch,
                                             command, flag, raw):
        # rejected before any file is read or written
        monkeypatch.chdir(tmp_path)
        assert main([*command, "--bundle", "no_bundle", flag, raw]) == 1
        assert list(tmp_path.iterdir()) == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {flag} must be comma-separated integers, "
                                f"got {raw!r}\n")

    @pytest.mark.parametrize("users", ["-1", "0,40"])
    def test_recommend_rejects_user_outside_bundle(self, mini_corpus, tmp_path,
                                                   capsys, users):
        bundle = tmp_path / "bundle"
        assert main(["prepare", "--input", str(mini_corpus / "log.csv"),
                     "--out", str(bundle), "--set", "seed=5"]) == 0
        assert main(["gce", "--bundle", str(bundle), "--out", str(bundle),
                     *SMALL]) == 0
        assert main(["train", "--bundle", str(bundle), "--out", str(tmp_path),
                     *SMALL, "--set", "max_steps=0"]) == 0
        capsys.readouterr()
        assert main(["recommend", "--bundle", str(bundle),
                     "--checkpoint", str(tmp_path / "checkpoint.bin"),
                     "--users", users, "-n", "3", *SMALL]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        bad = users.split(",")[-1]
        assert re.search(f"user index {bad} outside 0\\.\\.39 of "
                         f"{re.escape(str(bundle))}", captured.err), captured.err

    @pytest.mark.parametrize("extra", [1, 10**9])
    def test_recommend_rejects_n_past_the_catalog_before_ranking(
            self, mini_corpus, tmp_path, capsys, monkeypatch, extra):
        bundle = tmp_path / "bundle"
        assert main(["prepare", "--input", str(mini_corpus / "log.csv"),
                     "--out", str(bundle), "--set", "seed=5"]) == 0
        assert main(["gce", "--bundle", str(bundle), "--out", str(bundle),
                     *SMALL]) == 0
        assert main(["train", "--bundle", str(bundle), "--out", str(tmp_path),
                     *SMALL, "--set", "max_steps=0"]) == 0
        real = load_bundle(bundle).split.item_vocab.num_real
        ranked = []
        monkeypatch.setattr(cli, "recommend", lambda *args: ranked.append(args))
        capsys.readouterr()
        assert main(["recommend", "--bundle", str(bundle),
                     "--checkpoint", str(tmp_path / "checkpoint.bin"),
                     "--users", "0", "-n", str(real + extra), *SMALL]) == 1
        captured = capsys.readouterr()
        assert ranked == [] and captured.out == ""
        assert captured.err == (f"error: -n must be at most the catalog's {real} items, "
                                f"got {real + extra}\n")

    def test_recommend_rejects_user_without_interactions(self, mini_corpus, tmp_path,
                                                         capsys):
        # a bundle may hold a user with no interactions; prepare never
        # writes one, so user 0's are removed by hand
        bundle = tmp_path / "bundle"
        assert main(["prepare", "--input", str(mini_corpus / "log.csv"),
                     "--out", str(bundle), "--set", "seed=5"]) == 0
        assert main(["gce", "--bundle", str(bundle), "--out", str(bundle),
                     *SMALL]) == 0
        assert main(["train", "--bundle", str(bundle), "--out", str(tmp_path),
                     *SMALL, "--set", "max_steps=0"]) == 0
        loaded = load_bundle(bundle)
        seqs, cut = loaded.sequences, loaded.sequences.lengths[0]
        emptied = Sequences(seqs.items[cut:], seqs.timestamps[cut:],
                            np.r_[0, seqs.lengths[1:]])
        save_bundle(bundle, DatasetBundle(emptied, loaded.split, loaded.user_ids))
        capsys.readouterr()
        assert main(["recommend", "--bundle", str(bundle),
                     "--checkpoint", str(tmp_path / "checkpoint.bin"),
                     "--users", "1,0", "-n", "3", *SMALL]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: user index 0 of {bundle} has no interactions "
                                "to recommend from\n")

    @pytest.mark.parametrize("command", ["eval", "recommend"])
    def test_bundle_not_matching_checkpoint_rejected(self, mini_corpus, tmp_path,
                                                     capsys, command):
        small = PlantedConfig(n_clusters=2, items_per_cluster=8, n_users=30,
                              n_hot_items=4, n_tail_items=10,
                              cluster_draw_frac=(0.6, 0.9))
        write_log(tmp_path / "small.csv", planted_cluster_records(small, seed=3))
        small_bundle, bundle = tmp_path / "small", tmp_path / "bundle"
        assert main(["prepare", "--input", str(tmp_path / "small.csv"),
                     "--out", str(small_bundle), "--set", "seed=5"]) == 0
        assert main(["gce", "--bundle", str(small_bundle),
                     "--out", str(small_bundle), *SMALL]) == 0
        assert main(["train", "--bundle", str(small_bundle),
                     "--out", str(tmp_path), *SMALL, "--set", "max_steps=0"]) == 0
        assert main(["prepare", "--input", str(mini_corpus / "log.csv"),
                     "--out", str(bundle), "--set", "seed=5"]) == 0
        ckpt_path = tmp_path / "checkpoint.bin"
        extra = ["--users", "0"] if command == "recommend" else []
        capsys.readouterr()
        # the small run's adjacency matches its checkpoint; the bundle does not
        assert main([command, "--bundle", str(bundle),
                     "--checkpoint", str(ckpt_path),
                     "--adjacency", str(small_bundle / "adjacency.bin"),
                     *extra, *SMALL]) == 1
        err = capsys.readouterr().err
        assert re.search(f"{re.escape(str(bundle))} has 41 item rows but "
                         f"{re.escape(str(ckpt_path))} has 27 items", err), err

    def test_gce_rejects_checkpoint_of_another_catalog(self, mini_corpus,
                                                       tmp_path, capsys):
        small = PlantedConfig(n_clusters=2, items_per_cluster=8, n_users=30,
                              n_hot_items=4, n_tail_items=10,
                              cluster_draw_frac=(0.6, 0.9))
        write_log(tmp_path / "small.csv", planted_cluster_records(small, seed=3))
        small_bundle, bundle = tmp_path / "small", tmp_path / "bundle"
        assert main(["prepare", "--input", str(tmp_path / "small.csv"),
                     "--out", str(small_bundle), "--set", "seed=5"]) == 0
        assert main(["gce", "--bundle", str(small_bundle),
                     "--out", str(small_bundle), *SMALL]) == 0
        assert main(["train", "--bundle", str(small_bundle),
                     "--out", str(tmp_path), *SMALL, "--set", "max_steps=0"]) == 0
        assert main(["prepare", "--input", str(mini_corpus / "log.csv"),
                     "--out", str(bundle), "--set", "seed=5"]) == 0
        ckpt_path = tmp_path / "checkpoint.bin"
        capsys.readouterr()
        assert main(["gce", "--bundle", str(bundle), "--checkpoint", str(ckpt_path),
                     "--out", str(tmp_path / "gce"), *SMALL]) == 1
        err = capsys.readouterr().err
        assert re.search(f"{re.escape(str(bundle))} has 41 item rows but "
                         f"{re.escape(str(ckpt_path))} has 27 items", err), err
        assert not (tmp_path / "gce").exists()

    @pytest.mark.parametrize("content, match", [
        (b"seed = 1\n\xff\n", r"run\.cfg: not UTF-8 text"),
        (b"# comment\nseed = abc\n", r"run\.cfg:2: bad value for seed: 'abc'"),
        (b"d = 8\nbogus = 1\n", r"run\.cfg:2: unknown config key: bogus"),
    ], ids=["not_utf8", "bad_value", "unknown_key"])
    def test_config_file_errors_name_the_file(self, tmp_path, capsys, content,
                                              match):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(content)
        assert main(["gce", "--bundle", str(tmp_path / "bundle"),
                     "--out", str(tmp_path / "gce"), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert re.search(f"^error: {re.escape(str(tmp_path))}/{match}", err), err

    def test_prepare_is_deterministic(self, mini_corpus):
        root = mini_corpus
        assert main(["prepare", "--input", str(root / "log.csv"),
                     "--out", str(root / "b1"), "--set", "seed=9"]) == 0
        assert main(["prepare", "--input", str(root / "log.csv"),
                     "--out", str(root / "b2"), "--set", "seed=9"]) == 0
        for name in ("vocab.tsv", "users.tsv", "sequences.bin", "split.json"):
            assert (root / "b1" / name).read_bytes() == \
                (root / "b2" / name).read_bytes()

    def test_config_file_threads_reach_evaluation(self, mini_corpus, tmp_path,
                                                  capsys):
        root = mini_corpus
        bundle = tmp_path / "bundle"
        assert main(["prepare", "--input", str(root / "log.csv"),
                     "--out", str(bundle), "--set", "seed=5"]) == 0
        assert main(["gce", "--bundle", str(bundle), "--out", str(bundle),
                     *SMALL]) == 0
        assert main(["train", "--bundle", str(bundle), "--out", str(tmp_path),
                     *SMALL, "--set", "max_steps=0"]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 1\nneg_distribution = uniform\n", encoding="utf-8")
        capsys.readouterr()
        argv = ["eval", "--bundle", str(bundle), "--config", str(cfg),
                "--checkpoint", str(tmp_path / "checkpoint.bin"), *SMALL[:-2]]
        assert main(argv) == 0
        echo = json.loads(capsys.readouterr().out)["config"]
        assert (echo["threads"], echo["neg_distribution"]) == (1, "uniform")
        cfg.write_text("threads = 3\n", encoding="utf-8")
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: threads must be 1 (the option was removed), got 3\n"

    def test_train_missing_adjacency_hints_gce(self, mini_corpus, capsys):
        root = mini_corpus
        code = main(["train", "--bundle", str(root / "bundle"),
                     "--out", str(root / "run2"), *SMALL])
        assert code == 1
        assert "gimirec gce" in capsys.readouterr().err

    @pytest.mark.parametrize("delimiter", ["", "\n", "\r"], ids=["empty", "lf", "cr"])
    def test_prepare_rejects_empty_or_line_break_delimiter(self, mini_corpus, tmp_path,
                                                           capsys, delimiter):
        code = main(["prepare", "--input", str(mini_corpus / "log.csv"),
                     "--out", str(tmp_path / "bundle"), "--delimiter", delimiter])
        assert code == 1
        assert f"delimiter {delimiter!r}" in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()

    def test_bad_config_is_reported(self, mini_corpus, capsys):
        code = main(["prepare", "--input", str(mini_corpus / "log.csv"),
                     "--out", str(mini_corpus / "x"), "--set", "a=0.9"])
        assert code == 1
        assert "a+b" in capsys.readouterr().err

    def test_gradcheck_command(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--models", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max rel err" in out

    @pytest.mark.parametrize("models", ["0", "-2"])
    def test_gradcheck_rejects_no_models(self, capsys, models):
        assert main(["gradcheck", "--models", models]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n_models must be at least 1, got {models}\n"

    def test_gradcheck_rejects_negative_seed(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_ablate_rejects_negative_seed_before_out(self, tmp_path, capsys):
        out = tmp_path / "ablate"
        assert main(["ablate", "--bundle", str(tmp_path / "no_bundle"), "--out", str(out),
                     "--seeds", "0,-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seeds must be non-negative, got '0,-1'\n"
        assert not out.exists()

    def test_ablate_rejects_repeated_seed_before_out(self, tmp_path, capsys):
        out = tmp_path / "ablate"
        assert main(["ablate", "--bundle", str(tmp_path / "no_bundle"), "--out", str(out),
                     "--seeds", "2,0,1,0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seeds repeats seed 0, got '2,0,1,0'\n"
        assert not out.exists()

    def test_ablate_extracts_hop_pairs_once_per_variant(self, mini_corpus, tmp_path,
                                                        monkeypatch, capsys):
        bundle = tmp_path / "bundle"
        assert main(["prepare", "--input", str(mini_corpus / "log.csv"),
                     "--out", str(bundle), "--set", "seed=5"]) == 0
        calls = []
        for module in (ablation, train):
            def spy(*args, extract=module.extract_hop_pairs, **kwargs):
                calls.append(args[1])
                return extract(*args, **kwargs)
            monkeypatch.setattr(module, "extract_hop_pairs", spy)
        # the wiring check and both seeds of every variant
        assert main(["ablate", "--bundle", str(bundle), "--out", str(tmp_path / "ablate"),
                     "--seeds", "0,1", *ABLATE]) == 0
        assert calls == list(ablation.VARIANT_ORDER)
        assert "variant wiring checks: ok" in capsys.readouterr().out

    def test_ablate_wiring_failure_exits_1(self, mini_corpus, tmp_path, monkeypatch,
                                           capsys):
        bundle = tmp_path / "bundle"
        assert main(["prepare", "--input", str(mini_corpus / "log.csv"),
                     "--out", str(bundle), "--set", "seed=5"]) == 0
        extract = ablation.variant_accumulators

        def broken(*args):
            # no_I's hop-1 occurrence counts are no longer integers
            accs = extract(*args)
            hops = accs[AblationVariant.NO_I].hops
            assert hops[1].values.size
            hops[1] = hops[1]._replace(values=hops[1].values + 0.5)
            return accs

        monkeypatch.setattr(cli, "variant_accumulators", broken)
        capsys.readouterr()
        assert main(["ablate", "--bundle", str(bundle), "--out", str(tmp_path / "ablate"),
                     "--seeds", "0", *ABLATE]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "variant wiring checks: FAILED"
        assert [line for line in lines[1:] if line.endswith(": FAILED")] == [
            "  hop1_counts_are_integers: FAILED"]
        # nothing is trained once the wiring has failed
        assert not any("seed=" in line for line in lines)
        assert not (tmp_path / "ablate" / "runs").exists()

    def test_ablate_without_bundle_generates_the_planted_log(self, tmp_path, capsys):
        out = tmp_path / "ablate"
        assert main(["ablate", "--out", str(out), "--seeds", "0", *ABLATE,
                     "--set", "max_steps=1", "--set", "eval_every=1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "no bundle given; generating the planted-cluster synthetic dataset"
        assert "variant wiring checks: ok" in lines
        assert load_bundle(out / "bundle").split.item_vocab.num_real > 0
        assert (out / "synthetic_log.csv").stat().st_size > 0

    def test_ablate_command_on_bundle(self, mini_corpus, capsys):
        root = mini_corpus
        assert main(["prepare", "--input", str(root / "log.csv"),
                     "--out", str(root / "ab_bundle"), "--set", "seed=5"]) == 0
        code = main(["ablate", "--bundle", str(root / "ab_bundle"),
                     "--out", str(root / "ablate"), "--seeds", "0",
                     *SMALL[:-2], "--set", "l_time=3", "--set", "max_steps=6",
                     "--set", "eval_every=6", "--set", "threads=1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "variant wiring checks: ok" in out
        for variant in ("full", "no_I", "no_IN", "no_INT"):
            assert variant in out


def prepared_bundle(mini_corpus, tmp_path):
    """A bundle of the mini corpus holding its own adjacency.bin."""
    bundle = tmp_path / "bundle"
    assert main(["prepare", "--input", str(mini_corpus / "log.csv"),
                 "--out", str(bundle), "--set", "seed=5"]) == 0
    assert main(["gce", "--bundle", str(bundle), "--out", str(bundle), *SMALL]) == 0
    return bundle


class TestCliEdgeCases:
    def test_gce_rejects_negative_hop_weights(self, mini_corpus, tmp_path, capsys):
        # they used to fail an assert in the adjacency build, or under
        # python -O write a NaN adjacency
        bundle = tmp_path / "bundle"
        assert main(["prepare", "--input", str(mini_corpus / "log.csv"),
                     "--out", str(bundle)]) == 0
        capsys.readouterr()
        assert main(["gce", "--bundle", str(bundle), "--out", str(tmp_path / "gce"), *SMALL,
                     "--set", "alpha=-1", "--set", "beta=-2", "--set", "gamma=-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alpha must be finite and >= 0, got -1.0\n"
        assert not (tmp_path / "gce").exists()

    def _empty_split(self, bundle):
        """Leave every user in train: the valid and test lists are empty."""
        path = bundle / "split.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest.update(valid_users=[], test_users=[])
        path.write_text(json.dumps(manifest), encoding="utf-8")

    def test_train_on_an_empty_validation_split_keeps_a_checkpoint(
            self, mini_corpus, tmp_path, capsys):
        bundle = prepared_bundle(mini_corpus, tmp_path)
        self._empty_split(bundle)
        capsys.readouterr()
        assert main(["train", "--bundle", str(bundle), "--out", str(tmp_path / "run"),
                     *SMALL, "--set", "max_steps=2", "--set", "eval_every=2"]) == 0
        out = capsys.readouterr().out
        assert "best validation recall@20: 0.000000" in out
        load_checkpoint(tmp_path / "run" / "checkpoint.bin")

    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_eval_on_an_empty_split_reports_zero_users(self, mini_corpus, tmp_path,
                                                       capsys, split):
        bundle = prepared_bundle(mini_corpus, tmp_path)
        assert main(["train", "--bundle", str(bundle), "--out", str(tmp_path),
                     *SMALL, "--set", "max_steps=0"]) == 0
        self._empty_split(bundle)
        capsys.readouterr()
        assert main(["eval", "--bundle", str(bundle), "--split", split, "--n", "3,5",
                     "--checkpoint", str(tmp_path / "checkpoint.bin"), *SMALL]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["user_count"] == 0
        assert payload["metrics"] == {n: {"recall": 0.0, "ndcg": 0.0, "hit_rate": 0.0}
                                      for n in ("3", "5")}

    def test_train_without_validation_says_none_ran(self, mini_corpus, tmp_path, capsys):
        bundle = prepared_bundle(mini_corpus, tmp_path)
        capsys.readouterr()
        assert main(["train", "--bundle", str(bundle), "--out", str(tmp_path / "run"),
                     *SMALL, "--set", "max_steps=0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "best validation recall@20: none (no validation ran)"
        load_checkpoint(tmp_path / "run" / "checkpoint.bin")

    # an overflowing update: the loss of step 2, or the parameters checked
    # before step 1's validation, are non-finite
    @pytest.mark.parametrize("lr, eval_every, log, kept", [
        ("1e300", 5, ["step=2 diverged: non-finite loss",
                      "no checkpoint written: non-finite parameters"],
         "no validation ran and its parameters are not finite; no checkpoint written"),
        ("1e300", 1, ["step=1 diverged: non-finite parameters",
                      "no checkpoint written: non-finite parameters"],
         "no validation ran and its parameters are not finite; no checkpoint written"),
        ("1e30", 5, ["step=2 diverged: non-finite loss"],
         "no validation ran; {ckpt} holds its last parameters"),
    ], ids=["non_finite_loss", "non_finite_parameters", "finite_parameters"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_diverging_before_validation_never_leaves_an_unloadable_checkpoint(
            self, mini_corpus, tmp_path, capsys, lr, eval_every, log, kept):
        bundle = prepared_bundle(mini_corpus, tmp_path)
        run = tmp_path / "run"
        run.mkdir()
        ckpt = run / "checkpoint.bin"
        ckpt.write_bytes(b"an earlier run's checkpoint")
        capsys.readouterr()
        assert main(["train", "--bundle", str(bundle), "--out", str(run), *SMALL,
                     "--set", f"lr={lr}", "--set", "max_steps=5",
                     "--set", f"eval_every={eval_every}"]) == 1
        assert capsys.readouterr().err == f"training diverged; {kept.format(ckpt=ckpt)}\n"
        assert (run / "train_log.txt").read_text().splitlines() == log
        if lr == "1e30":
            load_checkpoint(ckpt)
        else:
            assert not ckpt.exists()

    @pytest.mark.parametrize("defect, match", [
        ("asymmetric", "{adj} \\(for {bundle}\\): normalized adjacency must be symmetric"),
        ("extra_row", "{adj} has 42 rows but {bundle} has 41 items"),
        ("overflow", "{adj} \\(for {bundle}\\): adjacency value overflows float32"),
    ], ids=["asymmetric", "extra_row", "overflow"])
    def test_train_rejects_adjacency_before_writing(self, mini_corpus, tmp_path,
                                                    capsys, defect, match):
        bundle = prepared_bundle(mini_corpus, tmp_path)
        good = read_adjacency(bundle / "adjacency.bin")
        rows = np.repeat(np.arange(good.shape[0]), np.diff(good.indptr))
        bad = good.copy()
        if defect == "asymmetric":
            bad.data[np.flatnonzero(rows != good.indices)[0]] *= 2.0
        elif defect == "overflow":  # finite in f64, inf once cast to f32
            bad.data[np.flatnonzero(rows == good.indices)[1]] = 1e300
        else:  # another catalog's adjacency
            bad = sp.block_diag([good, sp.identity(1)]).tocsr()
        adj = tmp_path / f"{defect}.bin"
        write_adjacency(adj, SimpleNamespace(a_norm=bad))
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--bundle", str(bundle), "--adjacency", str(adj),
                     "--out", str(out), *SMALL]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch("error: " + match.format(adj=re.escape(str(adj)),
                                                     bundle=re.escape(str(bundle))) + "\n",
                            err), err
        assert not out.exists()

    def test_train_tests_the_adjacency_symmetry_once(self, mini_corpus, tmp_path,
                                                     monkeypatch):
        # once per command, where the file is read; in-process callers trust
        # a build and test it no more
        bundle = prepared_bundle(mini_corpus, tmp_path)
        tests = []
        not_equal = sp.csr_matrix.__ne__

        def counted(a, b):
            tests.append(a.shape)
            return not_equal(a, b)

        monkeypatch.setattr(sp.csr_matrix, "__ne__", counted)
        run = tmp_path / "run"
        model = ["--checkpoint", str(run / "checkpoint.bin"), *SMALL]
        n_rows = read_adjacency(bundle / "adjacency.bin").shape[0]
        for command, args in (("train", ["--out", str(run), *SMALL, "--set", "max_steps=2"]),
                              ("eval", model),
                              ("recommend", [*model, "--users", "0", "-n", "3"])):
            tests.clear()
            assert main([command, "--bundle", str(bundle), *args]) == 0
            assert tests == [(n_rows, n_rows)], command

        hp = load_config(overrides=[*SMALL[1::2], "max_steps=2"])
        loaded = load_bundle(bundle)
        adj = train.build_adjacency_from_bundle(loaded, hp)
        tests.clear()
        train.train_loop(hp, loaded, adj.a_norm, tmp_path / "in_process")
        cast_adjacency(adj.a_norm, np.float32)
        assert tests == []

    @pytest.mark.parametrize("failure", [FileNotFoundError(2, "No such file", "git"),
                                         subprocess.TimeoutExpired("git", 5)],
                             ids=["missing", "timeout"])
    def test_build_info_without_git_is_unknown(self, monkeypatch, failure):
        def git(*args, **kwargs):
            raise failure

        monkeypatch.setattr(subprocess, "run", git)
        assert cli._build_info()["git"] == "unknown"

    def test_build_info_names_the_package_checkout_not_the_working_directory(
            self, tmp_path, monkeypatch):
        def git(*args, cwd=tmp_path):
            return subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                                  text=True)

        assert git("init", "-q").returncode == 0
        assert git("-c", "user.name=u", "-c", "user.email=u@example.com",
                   "-c", "commit.gpgsign=false",
                   "commit", "-q", "--allow-empty", "-m", "another repository").returncode == 0
        elsewhere = git("rev-parse", "--short", "HEAD").stdout.strip()
        own = git("rev-parse", "--short", "HEAD", cwd=Path(cli.__file__).parent)
        expect = own.stdout.strip() if own.returncode == 0 else "unknown"
        assert elsewhere and expect != elsewhere
        monkeypatch.chdir(tmp_path)
        assert cli._build_info()["git"] == expect
