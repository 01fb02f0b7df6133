import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lgnsde.cli import ConfigError, main, parse_config
from lgnsde.graphdata import SplitSpec, make_splits, save_bundle, sbm_generate
from lgnsde.model import LGNSDEModel

SRC = Path(__file__).resolve().parents[1] / "src"


TINY = """
# tiny SBM run used across the CLI tests
dataset = sbm
sbm_classes = 3
sbm_nodes_per_class = 12
sbm_p_in = 0.3
sbm_p_out = 0.03
sbm_feature_dim = 6
sbm_feature_gap = 2.0
train_frac = 0.3
val_frac = 0.3
hidden = 8
steps = 6
mc_samples = 4
val_mc = 1
epochs = 12
patience = 12
seed = 0
"""

# 3x10 SBM with a fixed-count split; the tests add val_count and test_count
SPLIT_3X10 = """
dataset = sbm
sbm_classes = 3
sbm_nodes_per_class = 10
sbm_p_in = 0.3
sbm_p_out = 0.03
sbm_feature_dim = 4
train_per_class = 3
hidden = 4
steps = 2
epochs = 3
seed = 0
"""


def write_cfg(tmp_path, text=TINY, name="run.cfg", extra=""):
    p = tmp_path / name
    p.write_text(text + extra)
    return str(p)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(list(argv) + ["--out", str(out)]), out


def run_subprocess(*argv):
    """`lgnsde` in a subprocess, so that numpy warnings reach stderr as in a
    real run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "lgnsde.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestParseConfig:
    def test_round_trip_values(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path))
        assert cfg.sbm_classes == 3
        assert cfg.hidden == 8
        assert cfg.train_frac == pytest.approx(0.3)
        assert cfg.kl_weight is None

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = parse_config(write_cfg(
            tmp_path, text="# comment\n\nhidden = 16  # trailing\n"))
        assert cfg.hidden == 16

    def test_unknown_key_names_line(self, tmp_path):
        path = write_cfg(tmp_path, text="hidden = 4\nbogus_key = 1\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config(path)

    def test_bad_value_type(self, tmp_path):
        path = write_cfg(tmp_path, text="hidden = not_an_int\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = write_cfg(tmp_path, text="hidden 4\n")
        with pytest.raises(ConfigError, match=":1:"):
            parse_config(path)

    def test_optional_none_fields(self, tmp_path):
        cfg = parse_config(write_cfg(
            tmp_path, text="ood_class = 2\nkl_weight = 0.5\n"))
        assert cfg.ood_class == 2
        assert cfg.kl_weight == pytest.approx(0.5)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code, _ = run(tmp_path, "train", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_bad_config_contents(self, tmp_path):
        path = write_cfg(tmp_path, text="dataset = sbm\nnot a line\n")
        code, _ = run(tmp_path, "train", "--config", path)
        assert code == 2

    def test_unknown_command(self, tmp_path):
        path = write_cfg(tmp_path)
        assert main(["frobnicate", "--config", path]) == 2

    def test_ood_without_ood_class(self, tmp_path):
        path = write_cfg(tmp_path)
        code, _ = run(tmp_path, "ood", "--config", path)
        assert code == 2

    def test_eval_without_checkpoint(self, tmp_path):
        path = write_cfg(tmp_path)
        code, _ = run(tmp_path, "eval", "--config", path)
        assert code == 2

    @pytest.mark.parametrize("command, extra, message", [
        ("train", "steps = 0\n", "steps must be >= 1"),
        ("train", "hidden = -3\n", "hidden must be >= 1"),
        ("ood", "ood_class = 9\n", "ood_class 9 outside"),
        ("eval", "", "unreadable checkpoint"),
        ("eval", "sbm_feature_dim = 5\n", "is for 6 features"),
        ("train", "dropout = 1.5\n", "dropout must be in [0,1)"),
        ("train", "mc_samples = 0\n", "mc_samples must be >= 1"),
        ("train", "val_mc = 0\n", "val_mc must be >= 1"),
        ("train", "epochs = -1\n", "epochs must be >= 0"),
        ("train", "sbm_feature_dim = 0\n", "feature_dim must be >= 1"),
        ("train", "t1 = nan\n", "must be finite"),
        ("train", "g = inf\n", "must be finite"),
        ("train", "patience = -1\n", "patience must be >= 0"),
        ("train", "sbm_classes = 1\n", "classes must be >= 2"),
        # `none` only for keys whose default is None; TINY ends on line 18
        ("train", "hidden = none\n", "run.cfg:19: bad value for hidden"),
        ("train", "steps = none\n", "run.cfg:19: bad value for steps"),
        ("train", "seed = none\n", "run.cfg:19: bad value for seed"),
        ("train", "epochs = none\n", "run.cfg:19: bad value for epochs"),
        ("train", "lr = none\n", "run.cfg:19: bad value for lr"),
        ("train", "train_per_class = 0\n", "train_per_class must be >= 1"),
        ("train", "train_per_class = 3\nval_count = -3\n", "val_count must be >= 0"),
        ("train", "train_per_class = 3\ntest_count = -1\n", "test_count must be >= 0"),
        ("train", "train_per_class = 3\nval_count = 0\n", "empty val mask"),
        ("train", "train_per_class = 3\nval_count = 10\ntest_count = 0\n",
         "empty test mask"),
        ("train", "train_frac = -0.2\n", "train_frac must be in (0, 1)"),
        ("train", "val_frac = 1.5\n", "val_frac must be in (0, 1)"),
        ("train", "lr = -1\n", "lr must be >= 0"),
        ("train", "kl_weight = -1\n", "kl_weight must be finite and >= 0"),
        ("train", "kl_weight = nan\n", "kl_weight must be finite and >= 0"),
        ("train", "prior_mu = nan\n", "prior_mu and prior_ou_theta must be finite"),
        ("train", "prior_ou_theta = nan\n", "prior_mu and prior_ou_theta must be finite"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, command,
                                       extra, message):
        path = write_cfg(tmp_path, extra=extra)
        argv = [command, "--config", path]
        if command == "eval":
            ckpt = tmp_path / "model.npz"
            if extra:  # a readable checkpoint for 6 features, not 5
                LGNSDEModel(d_in=6, num_classes=3, hidden=8).save(ckpt)
            else:
                ckpt.write_text("not an npz archive\n")
            argv += ["--checkpoint", str(ckpt)]
        code, _ = run(tmp_path, *argv)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error:")
        assert message in err[0]

    def test_unallocatable_count_is_one_line(self, tmp_path, capsys):
        # no training, then a predict whose seed array no machine can hold
        path = write_cfg(tmp_path, extra="epochs = 0\nmc_samples = 1000000000000000000\n")
        code, _ = run(tmp_path, "train", "--config", path)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error: Unable to allocate")

    def test_out_under_a_regular_file(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        (tmp_path / "file").write_text("")
        code = main(["train", "--config", path, "--out", str(tmp_path / "file" / "out")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_eval_non_finite_checkpoint_diverges(self, tmp_path, capsys):
        model = LGNSDEModel(d_in=6, num_classes=3, hidden=8)
        model.W_enc.data[0, 0] = np.inf
        model.save(tmp_path / "model.npz")
        code, out = run(tmp_path, "eval", "--config", write_cfg(tmp_path),
                        "--checkpoint", str(tmp_path / "model.npz"))
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("diverged:")
        assert not (out / "eval.json").exists()

    def test_eval_overflow_is_one_diverged_line(self, tmp_path):
        # finite weights whose products overflow: the first non-finite value
        # is made inside predict, outside any training step
        model = LGNSDEModel(d_in=6, num_classes=3, hidden=8)
        model.W_enc.data[:] = 1e308
        model.save(tmp_path / "model.npz")
        proc = run_subprocess("eval", "--config", write_cfg(tmp_path), "--out",
                              str(tmp_path / "out"), "--checkpoint",
                              str(tmp_path / "model.npz"))
        err = proc.stderr.strip().splitlines()
        assert proc.returncode == 1
        assert len(err) == 1 and err[0].startswith("diverged: eval: "), proc.stderr
        assert not (tmp_path / "out" / "eval.json").exists()

    def test_eval_solver_overflow_names_the_step(self, tmp_path):
        # the encoder is finite; the drift's second product overflows in the
        # first solver step of the first MC sample
        model = LGNSDEModel(d_in=6, num_classes=3, hidden=8)
        model.W2.data[:] = 1e308
        model.save(tmp_path / "model.npz")
        proc = run_subprocess("eval", "--config", write_cfg(tmp_path), "--out",
                              str(tmp_path / "out"), "--checkpoint",
                              str(tmp_path / "model.npz"))
        assert proc.returncode == 1
        assert proc.stderr.strip().splitlines() == [
            "diverged: eval: integration diverged at step 0: "
            "overflow encountered in matmul"], proc.stderr

    @pytest.mark.parametrize("kind, message", [
        ("empty", "No data left in file"), ("truncated", ""), ("text", ""),
        ("no-W1", "'W1 is not a file in the archive'"),
        ("no-config", "'config is not a file in the archive'")],
        ids=["empty", "truncated", "text", "no-W1", "no-config"])
    def test_unreadable_checkpoint_is_one_line(self, tmp_path, kind, message):
        ckpt = tmp_path / "model.npz"
        LGNSDEModel(d_in=6, num_classes=3, hidden=8).save(ckpt)
        with np.load(ckpt) as z:
            arrays = dict(z)
        if kind == "empty":
            ckpt.write_bytes(b"")
        elif kind == "truncated":
            ckpt.write_bytes(ckpt.read_bytes()[:ckpt.stat().st_size // 2])
        elif kind == "text":
            ckpt.write_text("not an npz archive\n")
        else:
            del arrays["W1" if kind == "no-W1" else "config"]
            np.savez(ckpt, **arrays)
        out = tmp_path / "out"
        proc = run_subprocess("eval", "--config", write_cfg(tmp_path), "--out", str(out),
                              "--checkpoint", str(ckpt))
        err = proc.stderr.strip().splitlines()
        assert proc.returncode == 2
        assert len(err) == 1, proc.stderr
        assert err[0].startswith(f"config error: unreadable checkpoint {str(ckpt)!r}: ")
        assert err[0].endswith(message)
        assert list(out.iterdir()) == []

    def test_ood_with_every_validation_node_held_out(self, tmp_path):
        # at seed 0 the one validation node is in class 2: nothing is left
        # for early stopping, so the run stops before training
        path = write_cfg(tmp_path, text=SPLIT_3X10,
                         extra="val_count = 1\ntest_count = 10\nood_class = 2\n")
        out = tmp_path / "out"
        proc = run_subprocess("ood", "--config", path, "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [
            "config error: every validation node is in held-out class 2"], proc.stderr
        assert list(out.iterdir()) == []

    def test_one_class_test_split_stops_before_training(self, tmp_path):
        path = write_cfg(tmp_path, text=SPLIT_3X10, extra="val_count = 5\ntest_count = 1\n")
        out = tmp_path / "out"
        proc = run_subprocess("train", "--config", path, "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [
            "config error: the test mask holds fewer than two classes, "
            "so it cannot be scored"], proc.stderr
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("change", [{"extra": 1}, {"hidden": "8"},
                                        {"mc_samples": 2.5}, {"prior_mu": None}],
                             ids=["unknown", "str-int", "float-int", "null-float"])
    def test_eval_checkpoint_with_bad_config_key(self, tmp_path, capsys, change):
        ckpt = tmp_path / "model.npz"
        LGNSDEModel(d_in=6, num_classes=3, hidden=8).save(ckpt)
        with np.load(ckpt) as z:
            arrays = dict(z)
        cfg = json.loads(arrays["config"].tobytes())
        cfg.update(change)
        arrays["config"] = np.frombuffer(json.dumps(cfg).encode(), dtype=np.uint8)
        np.savez(ckpt, **arrays)
        code, _ = run(tmp_path, "eval", "--config", write_cfg(tmp_path),
                      "--checkpoint", str(ckpt))
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith(f"config error: unreadable checkpoint {str(ckpt)!r}")
        assert next(iter(change)) in err[0]

    @pytest.mark.parametrize("key, index, message", [
        ("train", 999, "'train' index 999 is not a node in 0..17"),
        ("test", -1, "'test' index -1 is not a node in 0..17"),
        ("val", None, "no 'val' list of node indices"),
        ("test", "clear", "the 'test' list is empty"),
    ])
    def test_bad_bundle_splits(self, tmp_path, capsys, key, index, message):
        graph = sbm_generate(3, 6, 0.3, 0.03, 6, 2.0, seed=0)
        save_bundle(make_splits(graph, SplitSpec(seed=0, train_frac=0.34,
                                                 val_frac=0.33)), tmp_path / "b")
        splits_path = tmp_path / "b" / "splits.json"
        splits = json.loads(splits_path.read_text())
        if index is None:
            del splits[key]
        elif index == "clear":
            splits[key] = []
        else:
            splits[key].append(index)
        splits_path.write_text(json.dumps(splits))
        path = write_cfg(tmp_path, extra=f"dataset = bundle\nbundle_path = {tmp_path / 'b'}\n")
        code, _ = run(tmp_path, "train", "--config", path)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert err == [f"config error: {splits_path}: {message}"]

    def test_eval_checkpoint_with_bad_array_shape(self, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        LGNSDEModel(d_in=6, num_classes=3, hidden=8).save(ckpt)
        with np.load(ckpt) as z:
            arrays = dict(z)
        arrays["W1"] = np.zeros((3, 3))
        np.savez(ckpt, **arrays)
        code, _ = run(tmp_path, "eval", "--config", write_cfg(tmp_path),
                      "--checkpoint", str(ckpt))
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert err == [f"config error: unreadable checkpoint {str(ckpt)!r}: "
                       f"W1 has shape (3, 3), expected (9, 8)"]

    def test_non_finite_feature_is_config_error(self, tmp_path, capsys):
        save_bundle(sbm_generate(3, 6, 0.3, 0.03, 6, 2.0, seed=0), tmp_path / "b")
        nodes = tmp_path / "b" / "nodes.tsv"
        lines = nodes.read_text().splitlines()
        fields = lines[4].split("\t")
        fields[3] = "nan"
        lines[4] = "\t".join(fields)
        nodes.write_text("\n".join(lines) + "\n")
        path = write_cfg(tmp_path, extra=f"dataset = bundle\nbundle_path = {tmp_path / 'b'}\n")
        code, _ = run(tmp_path, "train", "--config", path)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert err == ["config error: node 4 has a non-finite feature"]

    @pytest.mark.parametrize("extra", ["lr = inf\n", "lr = 1e300\n",
                                       "prior_mu = 1e308\n", "g = 1e200\n"])
    def test_numeric_blow_up_is_one_diverged_line(self, tmp_path, extra):
        path = write_cfg(tmp_path, extra="sbm_nodes_per_class = 6\n" + extra)
        out = tmp_path / "out"
        proc = run_subprocess("train", "--config", path, "--out", str(out))
        err = proc.stderr.strip().splitlines()
        assert proc.returncode == 1
        assert len(err) == 1 and err[0].startswith("diverged:"), proc.stderr
        assert json.loads((out / "runlog.json").read_text())["diverged"] is True
        # it diverged in the first epoch, so the best parameters are the initial ones
        trained = LGNSDEModel.load(out / "model.npz")
        fresh = LGNSDEModel(**{k: v for k, v in trained.config_dict().items()
                               if k != "version"})
        for name in LGNSDEModel._param_names:
            assert np.array_equal(getattr(trained, name).data,
                                  getattr(fresh, name).data)

    @pytest.mark.parametrize("command, extra", [("ood", "g = 1e200\nood_class = 2\n"),
                                                ("verify", "g = 1e306\n")])
    def test_blow_up_outside_training_is_one_diverged_line(self, tmp_path, command,
                                                           extra):
        path = write_cfg(tmp_path, extra="sbm_nodes_per_class = 6\n" + extra)
        proc = run_subprocess(command, "--config", path, "--out", str(tmp_path / "out"))
        err = proc.stderr.strip().splitlines()
        assert proc.returncode == 1
        assert len(err) == 1 and err[0].startswith(f"diverged: {command}: "), proc.stderr


class TestGenerate:
    def test_writes_bundle(self, tmp_path):
        path = write_cfg(tmp_path)
        code, out = run(tmp_path, "generate", "--config", path)
        assert code == 0
        assert (out / "bundle" / "nodes.tsv").exists()
        assert (out / "bundle" / "edges.tsv").exists()
        assert (out / "bundle" / "splits.json").exists()

    def test_bundle_reloads_for_training(self, tmp_path):
        path = write_cfg(tmp_path)
        code, out = run(tmp_path, "generate", "--config", path)
        assert code == 0
        cfg2 = write_cfg(
            tmp_path, name="bundle.cfg",
            text=TINY + f"\ndataset = bundle\nbundle_path = {out / 'bundle'}\n")
        out2 = tmp_path / "out2"
        assert main(["train", "--config", cfg2, "--out", str(out2)]) == 0
        assert (out2 / "eval.json").exists()


class TestTrainEvalOod:
    def test_train_artifacts_and_learning(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        code, out = run(tmp_path, "train", "--config", path)
        assert code == 0
        log = json.loads((out / "runlog.json").read_text())
        assert not log["diverged"]
        assert len(log["epochs"]) >= 1
        report = json.loads((out / "eval.json").read_text())
        assert report["accuracy"] > 1.0 / 3.0  # better than chance
        assert (out / "entropy_hist.csv").exists()
        assert (out / "model.npz").exists()

    def test_eval_from_checkpoint_matches_train_report(self, tmp_path):
        path = write_cfg(tmp_path)
        code, out = run(tmp_path, "train", "--config", path)
        assert code == 0
        out2 = tmp_path / "out_eval"
        code2 = main(["eval", "--config", path, "--out", str(out2),
                      "--checkpoint", str(out / "model.npz")])
        assert code2 == 0
        a = json.loads((out / "eval.json").read_text())
        b = json.loads((out2 / "eval.json").read_text())
        assert a == b

    def test_ood_artifacts(self, tmp_path):
        path = write_cfg(tmp_path, extra="ood_class = 2\n")
        code, out = run(tmp_path, "ood", "--config", path)
        assert code == 0
        report = json.loads((out / "ood.json").read_text())
        assert "auroc_ood" in report["ood"]
        assert 0.0 <= report["ood"]["auroc_ood"] <= 1.0
        assert (out / "ood_entropy_hist.csv").exists()

    def test_nan_lr_diverges_cleanly(self, tmp_path, capsys):
        # Adam writes NaN into the parameters; validation then diverges
        path = write_cfg(tmp_path, extra="lr = nan\n")
        code, out = run(tmp_path, "train", "--config", path)
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads((out / "runlog.json").read_text())["diverged"] is True
        restored = LGNSDEModel.load(out / "model.npz")
        assert all(np.isfinite(p.data).all() for p in restored.parameters())

    def test_ood_nan_lr_diverges_cleanly(self, tmp_path, capsys):
        path = write_cfg(tmp_path, extra="lr = nan\nood_class = 2\n")
        code, out = run(tmp_path, "ood", "--config", path)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("diverged:")
        assert json.loads((out / "runlog.json").read_text())["diverged"] is True
        restored = LGNSDEModel.load(out / "model_ood.npz")
        assert all(np.isfinite(p.data).all() for p in restored.parameters())

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_cfg(tmp_path)
        _, out1 = run(tmp_path, "train", "--config", path)
        out2 = tmp_path / "out_seeded"
        main(["train", "--config", path, "--out", str(out2), "--seed", "123"])
        a = json.loads((out1 / "eval.json").read_text())
        b = json.loads((out2 / "eval.json").read_text())
        assert a != b


class TestVerifyAndGradcheck:
    def test_verify_passes_on_tiny_graph(self, tmp_path):
        path = write_cfg(tmp_path)
        code, out = run(tmp_path, "verify", "--config", path)
        assert code == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        for key in ("lemma1_pass", "lemma1_zero_drift_pass",
                    "lemma2_pass", "resnet_pass"):
            assert summary[key] is True
        assert (out / "lemma1.csv").exists()
        assert (out / "lemma2.csv").exists()

    def test_gradcheck_exit_zero(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        code, out = run(tmp_path, "gradcheck", "--config", path)
        assert code == 0
        table = json.loads((out / "gradcheck.json").read_text())
        assert table["max"] < 1e-4


class TestDeterminism:
    def test_reports_bitwise_identical(self, tmp_path):
        path = write_cfg(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", path, "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("runlog.json", "eval.json", "entropy_hist.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_zero_lr_keeps_initial_params(self, tmp_path):
        path = write_cfg(tmp_path, extra="lr = 0.0\nepochs = 3\npatience = 3\n")
        code, out = run(tmp_path, "train", "--config", path)
        assert code == 0
        trained = LGNSDEModel.load(out / "model.npz")
        fresh = LGNSDEModel(**{k: v for k, v in trained.config_dict().items()
                               if k != "version"})
        for name in LGNSDEModel._param_names:
            assert np.array_equal(getattr(trained, name).data,
                                  getattr(fresh, name).data)
