import dataclasses
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import container_payload, mutations
from test_data import oracle_audit_inverse_pairs
from dskg import beam, cli, data, evaluation, model, toygen, training
from dskg.config import parse_config_file, resolve_options, write_resolved


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tiny_splits(root):
    (root / "train.txt").write_text(
        "a\tp\tb\nb\tp\tc\nc\tq\ta\na\tq\tc\nb\tq\ta\n", encoding="utf-8"
    )
    (root / "valid.txt").write_text("a\tp\tc\n", encoding="utf-8")
    (root / "test.txt").write_text("b\tp\ta\n", encoding="utf-8")
    return root


@pytest.fixture
def tiny_dir(tmp_path):
    return write_tiny_splits(tmp_path)


@pytest.fixture
def trained(tmp_path, capsys):
    """A tiny prepared dataset plus a briefly trained checkpoint."""
    splits = write_tiny_splits(tmp_path)
    prep = tmp_path / "prep"
    code, _, _ = run_cli(capsys, "prepare", "--train", str(splits / "train.txt"),
                         "--valid", str(splits / "valid.txt"), "--test", str(splits / "test.txt"),
                         "--out", str(prep))
    assert code == 0
    out = tmp_path / "run"
    code, _, err = run_cli(
        capsys, "train", "--data", str(prep / "dataset.dskg"), "--out", str(out),
        "--embed-dim", "4", "--layers", "1", "--batch-size", "4", "--epochs", "2",
        "--entity-negatives", "2", "--relation-negatives", "2", "--keep-prob", "1.0",
    )
    assert code == 0, err
    return prep / "dataset.dskg", out / "checkpoint.dskg"


class TestPrepare:
    def test_stats_and_cache(self, tiny_dir, tmp_path, capsys):
        out = tmp_path / "prep"
        code, stdout, _ = run_cli(
            capsys, "prepare", "--train", str(tiny_dir / "train.txt"),
            "--valid", str(tiny_dir / "valid.txt"), "--test", str(tiny_dir / "test.txt"),
            "--out", str(out),
        )
        assert code == 0
        assert "entities=3" in stdout
        assert "relations=2" in stdout
        assert "relations_with_reverse=4" in stdout
        assert "train=5" in stdout and "valid=1" in stdout and "test=1" in stdout
        assert "train_sequences=10" in stdout
        dataset = data.load_dataset(out / "dataset.dskg")
        assert len(dataset.raw_train) == 5
        assert (out / "stats.txt").exists()
        assert (out / "config.resolved").exists()

    def test_default_toy_cache_bytes_are_pinned(self, tmp_path, capsys):
        # The cache of gen-toy's default graph, indexed by prepare: no floats, no BLAS.
        toy, prep = tmp_path / "toy", tmp_path / "prep"
        assert run_cli(capsys, "gen-toy", "--out", str(toy))[0] == 0
        code, _, _ = run_cli(
            capsys, "prepare", "--train", str(toy / "train.txt"),
            "--valid", str(toy / "valid.txt"), "--test", str(toy / "test.txt"), "--out", str(prep),
        )
        assert code == 0
        assert hashlib.sha256((prep / "dataset.dskg").read_bytes()).hexdigest() == (
            "7d8afd6a633f36847241991a3307d460db5f7dbbd65164a306009ecef22e157d"
        )

    def test_missing_file_is_one_line_error(self, tiny_dir, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "prepare", "--train", str(tiny_dir / "absent.txt"),
            "--valid", str(tiny_dir / "valid.txt"), "--test", str(tiny_dir / "test.txt"),
            "--out", str(tmp_path / "prep"),
        )
        assert code == 1
        lines = err.strip().split("\n")
        assert len(lines) == 1
        kind, name, message = lines[0].split("\t", 2)
        assert kind == "error" and name == "FileNotFoundError"
        assert "absent.txt" in message
        assert not (tmp_path / "prep").exists()

    def test_parse_error_carries_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "train.txt"
        bad.write_text("a\tp\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "prepare", "--train", str(bad), "--valid", str(bad),
            "--test", str(bad), "--out", str(tmp_path / "prep"),
        )
        assert code == 1
        assert "line 1" in err
        assert "train.txt" in err
        assert not (tmp_path / "prep").exists()


class TestGenToy:
    def test_files_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, stdout, _ = run_cli(
                capsys, "gen-toy", "--out", str(out),
                "--entities", "30", "--chains", "20", "--extra-pairs", "10",
            )
            assert code == 0
            assert "train=" in stdout
        assert (a / "train.txt").read_bytes() == (b / "train.txt").read_bytes()
        assert (a / "test.txt").read_bytes() == (b / "test.txt").read_bytes()

    @pytest.mark.parametrize("counts, named", [
        (("--chains", "-5"), "--chains"),
        (("--extra-pairs", "-3"), "--extra-pairs"),
        (("--chains", "0", "--extra-pairs", "0"), "--extra-pairs"),
        (("--seed", "-1"), "seed must be >= 0, got -1"),
        (("--entities", "2"), "num_entities (--entities) must be >= 3, got 2"),
        (("--holdout", "1.0"), "holdout_fraction (--holdout) must be in [0, 1), got 1.0"),
    ], ids=["negative_chains", "negative_extra_pairs", "both_zero", "negative_seed",
            "two_entities", "holdout_one"])
    def test_bad_counts_are_one_line_error_before_any_write(self, tmp_path, capsys,
                                                              counts, named):
        out = tmp_path / "toy"
        code, _, err = run_cli(capsys, "gen-toy", "--out", str(out), *counts)
        assert code == 1
        lines = err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("error\tValueError\t")
        assert named in lines[0]
        assert not out.exists()


class TestTrain:
    def test_defaults_echoed(self, tiny_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "train", "--data", str(tiny_dir), "--out", str(out), "--epochs", "0"
        )
        assert code == 0
        resolved = dict(
            line.split("=", 1) for line in (out / "config.resolved").read_text().split()
        )
        assert resolved["learning_rate"] == "0.001"
        assert resolved["embed_dim"] == "512"
        assert resolved["batch_size"] == "2048"
        assert resolved["keep_prob"] == "0.5"
        assert resolved["layers"] == "2"
        assert resolved["arch"] == "dskg"

    def test_variant_flags_override(self, tiny_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "train", "--data", str(tiny_dir), "--out", str(out),
            "--epochs", "0", "--arch", "shared", "--layers", "3",
        )
        assert code == 0
        resolved = (out / "config.resolved").read_text()
        assert "arch=shared" in resolved.split() and "layers=3" in resolved.split()
        params = model.load_checkpoint(out / "checkpoint.dskg")
        assert (params.arch, params.num_layers) == ("shared", 3)

    def test_config_file_env_and_flag_precedence(self, tiny_dir, tmp_path, capsys, monkeypatch):
        config_file = tmp_path / "run.conf"
        config_file.write_text("embed_dim = 16\nlayers = 1\nseed = 5\n", encoding="utf-8")
        monkeypatch.setenv("DSKG_LAYERS", "2")
        out = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "train", "--data", str(tiny_dir), "--out", str(out),
            "--config", str(config_file), "--epochs", "0", "--seed", "9",
        )
        assert code == 0
        resolved = dict(
            line.split("=", 1) for line in (out / "config.resolved").read_text().split()
        )
        assert resolved["embed_dim"] == "16"  # file beats default
        assert resolved["layers"] == "2"      # env beats file
        assert resolved["seed"] == "9"        # flag beats env

    def test_zero_eval_interval_is_one_line_error(self, tiny_dir, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "train", "--data", str(tiny_dir), "--out", str(tmp_path / "run"),
            "--eval-interval", "0",
        )
        assert code != 0
        lines = err.strip().split("\n")
        assert len(lines) == 1
        kind, name, message = lines[0].split("\t", 2)
        assert kind == "error" and name == "ValueError"
        assert "eval_interval" in message

    def test_zero_epochs_checkpoint_holds_the_initial_params(self, tiny_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, err = run_cli(
            capsys, "train", "--data", str(tiny_dir), "--out", str(out),
            "--epochs", "0", "--embed-dim", "4", "--layers", "1", "--seed", "3",
        )
        assert code == 0, err
        assert "best_val_mrr=-" in stdout
        dataset = cli.load_any_dataset(tiny_dir)
        initial = model.init_params(
            dataset.vocab.num_entities, dataset.vocab.num_relations, 4, 1, seed=3
        )
        saved = model.load_checkpoint(out / "checkpoint.dskg")
        assert [name for name, _ in model.named_tensors(saved)] == list(initial.tensors)
        for (_, got), (_, want) in zip(model.named_tensors(saved), model.named_tensors(initial)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("epochs", ["0", "1"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--entity-negatives", "0", "entity_negatives must be in [1, 3), got 0"),
        ("--entity-negatives", "3", "entity_negatives must be in [1, 3), got 3"),
        ("--relation-negatives", "0", "relation_negatives must be in [1, 4), got 0"),
        ("--relation-negatives", "99", "relation_negatives must be in [1, 4), got 99"),
    ], ids=["entity_0", "entity_3", "relation_0", "relation_99"])
    def test_bad_negative_count_is_one_line_error_before_any_write(
        self, tiny_dir, tmp_path, capsys, epochs, flag, value, message
    ):
        out = tmp_path / "run"
        code, stdout, err = run_cli(
            capsys, "train", "--data", str(tiny_dir), "--out", str(out),
            "--epochs", epochs, "--embed-dim", "4", "--layers", "1", flag, value,
        )
        assert (code, stdout) == (1, "")
        assert err.strip().split("\n") == [f"error\tValueError\t{message}"]
        assert not out.exists()

    def test_missing_dataset_is_one_line_error_before_any_write(self, tmp_path, capsys):
        missing, out = tmp_path / "missing.dskg", tmp_path / "run"
        code, stdout, err = run_cli(capsys, "train", "--data", str(missing), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.strip().split("\n") == [
            f"error\tFileNotFoundError\tno such dataset: {missing}"
        ]
        assert not out.exists()

    def test_verbose_prints_the_log_lines_then_the_summary(self, tiny_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, err = run_cli(
            capsys, "train", "--data", str(tiny_dir), "--out", str(out), "--verbose",
            "--embed-dim", "4", "--layers", "1", "--batch-size", "4", "--epochs", "3",
            "--entity-negatives", "2", "--relation-negatives", "2",
        )
        assert code == 0, err
        log = (out / "train.log").read_text().splitlines()
        best = max(float(line.split("\t")[2]) for line in log)
        assert stdout.splitlines() == log + [
            f"epochs={len(log)}", f"best_val_mrr={best:.4f}",
            f"checkpoint={out / 'checkpoint.dskg'}",
        ]

    def test_training_writes_checkpoint_and_log(self, trained):
        _, checkpoint = trained
        assert checkpoint.exists()
        log = checkpoint.parent / "train.log"
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 2
        assert all(len(line.split("\t")) == 5 for line in lines)


class TestEval:
    def test_four_reports(self, trained, tmp_path, capsys):
        dataset, checkpoint = trained
        out = tmp_path / "reports"
        code, stdout, err = run_cli(
            capsys, "eval", "--checkpoint", str(checkpoint), "--data", str(dataset),
            "--out", str(out),
        )
        assert code == 0, err
        for name in ("entity_plain", "entity_enhanced", "cascade_plain", "cascade_enhanced"):
            text = (out / f"{name}.report").read_text()
            assert "hits@1=" in text and "mrr=" in text
            assert name in stdout

    def test_reports_byte_identical_across_runs(self, trained, tmp_path, capsys):
        dataset, checkpoint = trained
        one, two = tmp_path / "r1", tmp_path / "r2"
        for out in (one, two):
            code, _, _ = run_cli(
                capsys, "eval", "--checkpoint", str(checkpoint), "--data", str(dataset),
                "--out", str(out), "--dump-ranks",
            )
            assert code == 0
        for name in ("entity_plain", "entity_enhanced", "cascade_plain", "cascade_enhanced"):
            assert (one / f"{name}.report").read_bytes() == (two / f"{name}.report").read_bytes()
            assert (one / f"{name}.ranks.tsv").read_bytes() == (two / f"{name}.ranks.tsv").read_bytes()

    def test_ranks_dump_format(self, trained, tmp_path, capsys):
        dataset, checkpoint = trained
        out = tmp_path / "reports"
        run_cli(capsys, "eval", "--checkpoint", str(checkpoint), "--data", str(dataset),
                "--out", str(out), "--dump-ranks")
        rows = (out / "cascade_plain.ranks.tsv").read_text().strip().split("\n")
        assert len(rows) == 2  # one test triple, both directions
        fields = rows[0].split("\t")
        assert len(fields) == 6
        assert fields[3] in ("tail", "head")
        assert fields[4].isdigit() and fields[5].isdigit()

    def test_checkpoint_vocab_mismatch(self, trained, tmp_path, capsys):
        _, checkpoint = trained
        other = tmp_path / "other"
        other.mkdir()
        (other / "train.txt").write_text("x\tr\ty\ny\tr\tz\nz\tr\tw\nw\tr\tx\n")
        (other / "valid.txt").write_text("x\tr\tz\n")
        (other / "test.txt").write_text("y\tr\tw\n")
        code, _, err = run_cli(
            capsys, "eval", "--checkpoint", str(checkpoint), "--data", str(other),
            "--out", str(tmp_path / "r"),
        )
        assert code == 1
        assert "mismatch" in err

    @pytest.mark.parametrize("damage", ["short_header", "unknown_arch"])
    def test_damaged_checkpoint_is_one_line_value_error(self, trained, tmp_path, capsys, damage):
        dataset, checkpoint = trained
        bad = tmp_path / "bad.dskg"
        if damage == "short_header":
            bad.write_bytes(checkpoint.read_bytes()[:20])
        else:
            payload = container_payload(checkpoint, model.CHECKPOINT_MAGIC)
            payload[16] = 7  # the architecture code
            data.write_container(bad, model.CHECKPOINT_MAGIC, model.CHECKPOINT_VERSION, [payload])
        code, _, err = run_cli(
            capsys, "eval", "--checkpoint", str(bad), "--data", str(dataset),
            "--out", str(tmp_path / "r"),
        )
        assert code == 1
        lines = err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("error\tValueError\t")
        assert str(bad) in lines[0]

    def test_every_checkpoint_mutation_is_one_line_value_error(self, trained, tmp_path,
                                                               capsys):
        dataset, _ = trained
        checkpoint, bad, out = tmp_path / "tiny.dskg", tmp_path / "bad.dskg", tmp_path / "r"
        model.save_checkpoint(model.init_params(3, 4, 1, 1, seed=0), checkpoint)
        for what, blob in mutations(checkpoint.read_bytes()):
            bad.write_bytes(blob)
            code, stdout, err = run_cli(
                capsys, "eval", "--checkpoint", str(bad), "--data", str(dataset),
                "--out", str(out),
            )
            assert (code, stdout) == (1, ""), what
            lines = err.strip().split("\n")
            assert len(lines) == 1 and lines[0].startswith(f"error\tValueError\t{bad}: "), what
        assert not out.exists()

    def test_checkpoint_header_no_model_has_is_one_line_value_error(
        self, trained, tmp_path, capsys
    ):
        dataset, checkpoint = trained
        payload = container_payload(checkpoint, model.CHECKPOINT_MAGIC)
        payload[12:16] = (0).to_bytes(4, "little")  # num_layers
        bad = tmp_path / "no_layers.dskg"
        data.write_container(bad, model.CHECKPOINT_MAGIC, model.CHECKPOINT_VERSION, [payload])
        out = tmp_path / "r"
        code, _, err = run_cli(
            capsys, "eval", "--checkpoint", str(bad), "--data", str(dataset), "--out", str(out),
        )
        assert code == 1
        assert err.strip().split("\n") == [
            f"error\tValueError\t{bad}: checkpoint header num_layers must be in "
            f"1..{model.MAX_LAYERS}, got 0"
        ]
        assert not list(out.glob("*.report"))

    def test_checkpoint_size_past_the_end_is_one_line_value_error(
        self, trained, tmp_path, capsys
    ):
        dataset, checkpoint = trained
        payload = container_payload(checkpoint, model.CHECKPOINT_MAGIC)
        payload[0:4] = (2**31).to_bytes(4, "little")  # num_entities
        bad = tmp_path / "huge.dskg"
        data.write_container(bad, model.CHECKPOINT_MAGIC, model.CHECKPOINT_VERSION, [payload])
        out = tmp_path / "r"
        code, _, err = run_cli(
            capsys, "eval", "--checkpoint", str(bad), "--data", str(dataset), "--out", str(out),
        )
        assert code == 1
        assert err.strip().split("\n") == [
            f"error\tValueError\t{bad}: truncated checkpoint"
        ]
        assert not list(out.glob("*.report"))

    def test_empty_split_is_one_line_value_error(self, tmp_path, capsys):
        splits = write_tiny_splits(tmp_path)
        (splits / "valid.txt").write_text("", encoding="utf-8")
        dataset = cli.load_any_dataset(splits)
        checkpoint = tmp_path / "untrained.dskg"
        model.save_checkpoint(
            model.init_params(dataset.vocab.num_entities, dataset.vocab.num_relations, 4, 1),
            checkpoint,
        )
        code, _, err = run_cli(
            capsys, "eval", "--checkpoint", str(checkpoint), "--data", str(splits),
            "--out", str(tmp_path / "r"), "--split", "valid",
        )
        assert code == 1
        assert err.strip().split("\n") == [
            "error\tValueError\tsplit 'valid' has no triples to evaluate"
        ]


class TestPredictTriples:
    def test_outputs_and_formats(self, trained, tmp_path, capsys):
        dataset, checkpoint = trained
        out = tmp_path / "pred"
        code, stdout, err = run_cli(
            capsys, "predict-triples", "--checkpoint", str(checkpoint),
            "--data", str(dataset), "--out", str(out),
            "--stage1-window", "6", "--stage2-window", "10",
        )
        assert code == 0, err
        predictions = (out / "predictions.tsv").read_text().strip().split("\n")
        assert len(predictions) == 10
        assert all(len(line.split("\t")) == 4 for line in predictions)
        scores = [float(line.split("\t")[3]) for line in predictions]
        assert scores == sorted(scores, reverse=True)
        curve_rows = (out / "curve.tsv").read_text().strip().split("\n")
        assert curve_rows[0] == "n\tn_corr\tn_pred\tn_error\tp_n"
        assert "triples=10" in stdout

    def test_rerun_byte_identical(self, trained, tmp_path, capsys):
        dataset, checkpoint = trained
        one, two = tmp_path / "p1", tmp_path / "p2"
        for out in (one, two):
            code, _, _ = run_cli(
                capsys, "predict-triples", "--checkpoint", str(checkpoint),
                "--data", str(dataset), "--out", str(out),
                "--stage1-window", "5", "--stage2-window", "8",
            )
            assert code == 0
        assert (one / "predictions.tsv").read_bytes() == (two / "predictions.tsv").read_bytes()
        assert (one / "curve.tsv").read_bytes() == (two / "curve.tsv").read_bytes()

    def test_nan_model_is_one_line_error_and_writes_no_outputs(self, trained, tmp_path, capsys):
        dataset, checkpoint = trained
        params = model.load_checkpoint(checkpoint)
        params.entity_out_w[...] = np.nan
        broken = tmp_path / "nan.dskg"
        model.save_checkpoint(params, broken)
        out = tmp_path / "pred"
        code, _, err = run_cli(
            capsys, "predict-triples", "--checkpoint", str(broken),
            "--data", str(dataset), "--out", str(out),
            "--stage1-window", "6", "--stage2-window", "10",
        )
        assert code == 1
        assert err.strip().split("\n") == [
            "error\tValueError\tcannot rank non-finite scores"
        ]
        assert not (out / "predictions.tsv").exists()
        assert not (out / "curve.tsv").exists()


    def test_only_training_facts_print_na_precision(self, tmp_path, capsys):
        # Two entities and one relation, all four pairs known: each of the 8
        # possible outputs (both orientations) is a training fact, so no
        # precision is defined.
        (tmp_path / "train.txt").write_text("a\tr\ta\na\tr\tb\nb\tr\ta\nb\tr\tb\n")
        (tmp_path / "valid.txt").write_text("")
        (tmp_path / "test.txt").write_text("")
        checkpoint = tmp_path / "model.dskg"
        model.save_checkpoint(model.init_params(2, 2, 4, 1), checkpoint)
        out = tmp_path / "pred"
        code, stdout, err = run_cli(
            capsys, "predict-triples", "--checkpoint", str(checkpoint),
            "--data", str(tmp_path), "--out", str(out),
        )
        assert (code, stdout) == (0, "triples=8\nfinal_precision=NA\n"), err
        rows = (out / "curve.tsv").read_text().strip().split("\n")[1:]
        assert rows and all(row.split("\t")[4] == "NA" for row in rows)


class TestWorkers:
    @pytest.mark.parametrize(
        "command, workers", [("eval", "0"), ("eval", "-2"),
                             ("predict-triples", "0"), ("predict-triples", "-2")],
    )
    def test_workers_below_one_is_one_line_error(self, trained, tmp_path, capsys,
                                                 command, workers):
        dataset, checkpoint = trained
        code, _, err = run_cli(
            capsys, command, "--checkpoint", str(checkpoint), "--data", str(dataset),
            "--out", str(tmp_path / "out"), "--workers", workers,
        )
        assert code == 1
        lines = err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0] == f"error\tValueError\tworkers must be >= 1, got {workers}"


class TestOptionSources:
    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    @pytest.mark.parametrize("command, key, value, message", [
        ("train", "arch", "bogus", "arch must be one of ('dskg', 'shared'), got 'bogus'"),
        ("train", "arch", "shared-4", "arch must be one of ('dskg', 'shared'), got 'shared-4'"),
        ("train", "precision", "float16",
         "precision must be one of ('standard', 'high'), got 'float16'"),
        ("train", "epochs", "x", "epochs: cannot parse 'x' as int"),
        ("train", "learning_rate", "nan", "learning_rate must be positive and finite, got nan"),
        ("train", "learning_rate", "inf", "learning_rate must be positive and finite, got inf"),
        ("train", "learning_rate", "0", "learning_rate must be positive and finite, got 0.0"),
        ("train", "keep_prob", "0", "keep_prob must be in (0, 1], got 0.0"),
        ("train", "keep_prob", "1.5", "keep_prob must be in (0, 1], got 1.5"),
        ("train", "batch_size", "0", "batch_size must be >= 1, got 0"),
        ("train", "epochs", "-1", "epochs must be >= 0, got -1"),
        ("train", "patience", "0", "patience must be >= 1, got 0"),
        ("train", "eval_interval", "0", "eval_interval must be >= 1, got 0"),
        ("train", "embed_dim", "0", "embed_dim must be >= 1, got 0"),
        ("train", "seed", "-1", "seed must be >= 0, got -1"),
        ("train", "layers", "0", "layers must be in 1..4, got 0"),
        ("train", "layers", "7", "layers must be in 1..4, got 7"),
        ("eval", "alpha", "2", "alpha must be in (0, 1), got 2.0"),
        ("predict-triples", "stage1_window", "0", "stage1_window must be >= 1, got 0"),
        ("predict-triples", "stage2_window", "0", "stage2_window must be >= 1, got 0"),
        ("predict-triples", "curve_points", "-5", "curve_points must be >= 0, got -5"),
        ("eval", "workers", "0", "workers must be >= 1, got 0"),
        ("predict-triples", "workers", "0", "workers must be >= 1, got 0"),
    ])
    def test_bad_value_is_one_line_error_before_any_read(
        self, tmp_path, capsys, monkeypatch, command, key, value, message, source
    ):
        """A bad value gives the same error whichever source it comes from,
        and the error comes before the (missing) dataset is looked at."""
        argv = [command, "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "out")]
        if command != "train":
            argv += ["--checkpoint", str(tmp_path / "missing.dskg")]
        if source == "flag":
            argv += ["--" + key.replace("_", "-"), value]
        elif source == "config":
            (tmp_path / "run.conf").write_text(f"{key} = {value}\n", encoding="utf-8")
            argv += ["--config", str(tmp_path / "run.conf")]
        else:
            monkeypatch.setenv("DSKG_" + key.upper(), value)
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err.strip().split("\n") == [f"error\tValueError\t{message}"]
        assert not (tmp_path / "out").exists()


    def test_repeated_config_key_is_one_line_error_before_any_read(self, tmp_path, capsys):
        config_file = tmp_path / "run.conf"
        config_file.write_text("epochs = 5\nepochs = 7\n", encoding="utf-8")
        code, stdout, err = run_cli(
            capsys, "train", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "out"),
            "--config", str(config_file),
        )
        assert (code, stdout) == (1, "")
        assert err.strip().split("\n") == [
            f"error\tValueError\t{config_file}:2: key 'epochs' repeats line 1"
        ]
        assert not (tmp_path / "out").exists()


class TestAuditInverse:
    def test_stdout_report(self, tmp_path, capsys):
        (tmp_path / "train.txt").write_text(
            "a\tcontains\tb\nb\tpart_of\tc\nc\tcontainedby\tb\n"
        )
        (tmp_path / "valid.txt").write_text("a\tcontains\tc\n")
        (tmp_path / "test.txt").write_text("b\tcontainedby\ta\n")
        code, stdout, _ = run_cli(capsys, "audit-inverse", "--data", str(tmp_path))
        assert code == 0
        row = stdout.strip().split("\n")[0].split("\t")
        assert row[0] == "contains" and row[1] == "containedby"
        assert row[2] == "1" and float(row[3]) == 1.0

    def test_file_output(self, tmp_path, capsys):
        write_tiny_splits(tmp_path)
        out_file = tmp_path / "audit.tsv"
        code, stdout, _ = run_cli(
            capsys, "audit-inverse", "--data", str(tmp_path), "--out", str(out_file)
        )
        assert code == 0
        assert out_file.exists()
        assert "pairs=" in stdout

    @pytest.mark.parametrize("damage, message", [
        pytest.param("duplicate_entity", "duplicate entity label 'a'", id="duplicate_entity"),
        pytest.param("reverse_in_valid",
                     "valid split holds reverse relation 'p^-1'", id="reverse_in_valid"),
    ])
    def test_damaged_vocabulary_is_one_line_value_error(self, tiny_dir, tmp_path, capsys,
                                                        damage, message):
        prep = tmp_path / "prep"
        code, _, _ = run_cli(capsys, "prepare", "--train", str(tiny_dir / "train.txt"),
                             "--valid", str(tiny_dir / "valid.txt"),
                             "--test", str(tiny_dir / "test.txt"), "--out", str(prep))
        assert code == 0
        cache = prep / "dataset.dskg"
        payload = container_payload(cache, data.CACHE_MAGIC)
        # Three one-letter entity labels (a, b, c) follow the 20-byte header,
        # each as a 4-byte length and its byte; the payload ends with the
        # valid and then the test triple. Relation ids are q, p, q^-1, p^-1
        # (q is the more frequent).
        if damage == "duplicate_entity":
            payload[20 + 5 + 4] = payload[20 + 4]
        else:  # the valid triple's relation becomes p^-1
            payload[-20:-16] = (3).to_bytes(4, "little")
        data.write_container(cache, data.CACHE_MAGIC, data.CACHE_VERSION, [payload])
        code, stdout, err = run_cli(capsys, "audit-inverse", "--data", str(cache))
        assert code == 1 and stdout == ""
        assert err.strip().split("\n") == [f"error\tValueError\t{message.format(cache=cache)}"]

    def test_out_bytes_match_the_oracle_on_the_readme_toy_flow(self, tmp_path, capsys):
        toy, prep, out_file = tmp_path / "toy", tmp_path / "prep", tmp_path / "audit.tsv"
        assert run_cli(capsys, "gen-toy", "--out", str(toy))[0] == 0
        code, _, _ = run_cli(
            capsys, "prepare", "--train", str(toy / "train.txt"),
            "--valid", str(toy / "valid.txt"), "--test", str(toy / "test.txt"), "--out", str(prep),
        )
        assert code == 0
        cache = prep / "dataset.dskg"
        code, stdout, _ = run_cli(capsys, "audit-inverse", "--data", str(cache), "--out",
                                  str(out_file))
        assert (code, stdout) == (0, f"pairs=9\nout={out_file}\n")
        dataset = data.load_dataset(cache)
        expected = io.StringIO()
        data.write_inverse_audit(oracle_audit_inverse_pairs(dataset), dataset.vocab, expected)
        assert out_file.read_bytes() == expected.getvalue().encode()
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
            "61b9717defa5aa7faf97f05c90fc07d26d649b120c03ee11ea0320bb064f7dbe"
        )

    def test_failed_out_write_keeps_the_previous_file(self, tiny_dir, tmp_path, capsys,
                                                      monkeypatch):
        out_file = tmp_path / "audit" / "audit.tsv"
        out_file.parent.mkdir()
        out_file.write_bytes(b"previous\treport\n")
        real = data.write_inverse_audit

        def first_row_then_fail(rows, vocab, handle):
            real(rows[:1], vocab, handle)
            raise OSError("disk full")

        monkeypatch.setattr(data, "write_inverse_audit", first_row_then_fail)
        code, stdout, err = run_cli(
            capsys, "audit-inverse", "--data", str(tiny_dir), "--out", str(out_file)
        )
        assert (code, stdout) == (1, "")
        assert err.strip().split("\n") == ["error\tOSError\tdisk full"]
        assert out_file.read_bytes() == b"previous\treport\n"
        assert [p.name for p in out_file.parent.iterdir()] == ["audit.tsv"]


    def test_broken_stdout_pipe_exits_1_quietly(self, tmp_path, capsys, monkeypatch):
        toy = tmp_path / "toy"
        assert run_cli(capsys, "gen-toy", "--out", str(toy))[0] == 0
        writes = []

        class ClosedPipe:
            def write(self, text):
                writes.append(text)
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = cli.main(["audit-inverse", "--data", str(toy)])
        monkeypatch.undo()
        assert code == 1 and len(writes) == 1  # the first audit row hit the closed pipe
        assert capsys.readouterr() == ("", "")


class TestConfigHelpers:
    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("# comment\nalpha = 0.5\n\nbeta=2\n", encoding="utf-8")
        assert parse_config_file(path) == {"alpha": "0.5", "beta": "2"}

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("epochs = 5\n# comment\nseed = 1\n epochs=7\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            parse_config_file(path)
        assert str(err.value) == f"{path}:4: key 'epochs' repeats line 1"

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("just words\n", encoding="utf-8")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("bogus = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bogus"):
            resolve_options({"real": 1}, {"real": int}, config_file=path)

    def test_bool_coercion_from_env(self, monkeypatch):
        monkeypatch.setenv("DSKG_FLAG", "off")
        merged = resolve_options({"flag": True}, {"flag": bool})
        assert merged["flag"] is False

    @pytest.mark.parametrize("kind, value", [(int, "1.5"), (float, "x"), (bool, "maybe")])
    def test_unparsable_value_names_option_value_and_type(self, kind, value):
        message = f"^opt: cannot parse '{value}' as {kind.__name__}$"
        with pytest.raises(ValueError, match=message):
            resolve_options({"opt": None}, {"opt": kind}, flags={"opt": value})

    def test_write_resolved_sorted(self, tmp_path):
        path = tmp_path / "config.resolved"
        write_resolved({"b": 2, "a": 1}, path)
        assert path.read_text() == "a=1\nb=2\n"

    @pytest.mark.parametrize("writer", ["config.resolved", "gen-toy splits", "gen-toy valid"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, writer):
        class Unwritable:
            def __str__(self):
                raise OSError("disk full")

        if writer == "config.resolved":
            write_resolved({"a": 1, "b": 2}, tmp_path / "config.resolved")
            write = lambda: write_resolved({"a": 3, "b": Unwritable()}, tmp_path / "config.resolved")
        else:
            toygen.write_toy_kg(toygen.generate_toy_kg(toygen.ToyConfig()), tmp_path)
            kg = toygen.generate_toy_kg(toygen.ToyConfig(num_entities=20, num_chains=10,
                                                         num_extra_pairs=5))
            # The last line of a split fails, after the others are written;
            # for valid.txt, after the whole new train.txt.
            split = kg.train if writer == "gen-toy splits" else kg.valid
            split.append(data.RawTriple(Unwritable(), "r", "o"))
            write = lambda: toygen.write_toy_kg(kg, tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        with pytest.raises(OSError, match="disk full"):
            write()
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


    def test_option_tables_follow_the_config_dataclasses(self):
        assert cli.TRAIN_OPTIONS["layers"] == (int, training.TrainConfig().num_layers)
        assert "num_layers" not in cli.TRAIN_OPTIONS
        assert cli.TRAIN_OPTIONS["entity_negatives"] == (int, None)
        assert cli.EVAL_OPTIONS["alpha"] == (float, evaluation.EnhanceConfig().alpha)
        beam_defaults = {key: d for key, (_, d) in cli.PREDICT_OPTIONS.items() if key != "workers"}
        assert beam_defaults == dataclasses.asdict(beam.BeamConfig())
        parser = cli.build_parser()
        paths = ["--data", "d", "--out", "o"]
        for argv, table in (
            (["train", *paths], cli.TRAIN_OPTIONS),
            (["eval", "--checkpoint", "c", *paths], cli.EVAL_OPTIONS),
            (["predict-triples", "--checkpoint", "c", *paths], cli.PREDICT_OPTIONS),
        ):
            args = vars(parser.parse_args(argv))
            assert all(key in args and args[key] is None for key in table), argv[0]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_no_command(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2


class TestModuleEntryPoint:
    """``python -m dskg`` runs the same ``main`` and exits with its code."""

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["frobnicate"], 2)],
                             ids=["help", "unknown_command"])
    def test_exit_codes(self, argv, code):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
        result = subprocess.run([sys.executable, "-m", "dskg", *argv], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == code, result.stderr
        assert ("usage: dskg" in result.stdout) if code == 0 else ("usage: dskg" in result.stderr)
