import json
import os
import subprocess
import sys
import textwrap
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from lgnsde import cli, verify
from lgnsde.cli import main, parse_config
from lgnsde.graphdata import SplitSpec, make_splits, save_bundle, sbm_generate
from lgnsde.model import LGNSDEModel
from lgnsde.train import test_report as _test_report
from lgnsde.train import train_model

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"


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


def run_subprocess(*argv, python=("-m", "lgnsde.cli")):
    """`lgnsde` in a subprocess, so that numpy warnings reach stderr as in a
    real run; `python` replaces the module run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *python, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_import_loads_no_scipy_stats_or_special():
    # scipy.stats alone took about 1 s and 44 MB of every process
    proc = run_subprocess(python=("-c", "import sys, lgnsde.cli; print(sorted(m for m in "
                                  "sys.modules if m.startswith(('scipy.stats', "
                                  "'scipy.special'))))"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_train_and_predict_load_no_scipy_sparse():
    # scipy/sparse/__init__.py imports scipy._lib._array_api and with it
    # numpy.f2py, numpy.testing and unittest: 20 MB of every process that
    # built a graph. spmm loads only the compiled kernel module
    code = textwrap.dedent("""
        import sys
        import lgnsde.cli
        from lgnsde import (BrownianPath, LGNSDEModel, SplitSpec, backward,
                            make_splits, sbm_generate)
        g = make_splits(sbm_generate(2, 5, 0.5, 0.1, 3, 1.0, seed=0),
                        SplitSpec(seed=0, train_frac=0.4, val_frac=0.2))
        model = LGNSDEModel(g.d_in, g.num_classes, hidden=3, steps=2, seed=0)
        backward(model.training_loss(g, BrownianPath(0, 2, g.n, 3)))
        assert model.W1.grad is not None
        model.predict(g, 2)
        print(sorted(m for m in sys.modules if m.startswith(
            ('scipy.sparse', 'scipy._lib._array_api', 'numpy.f2py', 'unittest'))))
    """)
    proc = run_subprocess(python=("-c", code))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy.sparse._sparsetools']"


class TestParseConfig:
    def test_readme_example_config_parses(self, tmp_path):
        # a README key that drifts from RunConfig fails here
        text = README.read_text()
        block = text.split("with `#` comments. Example:\n\n```\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(write_cfg(tmp_path, text=block))
        assert cfg.ood_class == 2
        assert cfg.kl_weight is None

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
        with pytest.raises(ValueError, match=":2:"):
            parse_config(path)

    def test_bad_value_type(self, tmp_path):
        path = write_cfg(tmp_path, text="hidden = not_an_int\n")
        with pytest.raises(ValueError):
            parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = write_cfg(tmp_path, text="hidden 4\n")
        with pytest.raises(ValueError, match=":1:"):
            parse_config(path)

    def test_optional_none_fields(self, tmp_path):
        cfg = parse_config(write_cfg(
            tmp_path, text="ood_class = 2\nkl_weight = 0.5\n"))
        assert cfg.ood_class == 2
        assert cfg.kl_weight == pytest.approx(0.5)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code, out = run(tmp_path, "train", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2
        assert not out.exists()

    def test_bad_config_contents(self, tmp_path):
        path = write_cfg(tmp_path, text="dataset = sbm\nnot a line\n")
        code, out = run(tmp_path, "train", "--config", path)
        assert code == 2
        assert not out.exists()

    def test_unknown_command(self, tmp_path):
        path = write_cfg(tmp_path)
        assert main(["frobnicate", "--config", path]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["frobnicate", "--config", "run.cfg"], "argument command: invalid choice: 'frobnicate'"),
        (["train"], "the following arguments are required: --config"),
        (["train", "--config", "run.cfg", "--seed", "x"], "argument --seed: invalid int value"),
        (["eval", "--config", "run.cfg"], "eval requires --checkpoint"),
    ], ids=["unknown-command", "no-config", "bad-seed", "eval-no-checkpoint"])
    def test_usage_error_is_one_line(self, tmp_path, capsys, argv, message):
        # argparse's usage block is not printed, only the one line
        write_cfg(tmp_path)
        argv = [str(tmp_path / a) if a == "run.cfg" else a for a in argv]
        code, out = run(tmp_path, *argv)
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"usage error: {message}"), captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train", "ood", "verify", "gradcheck"])
    def test_checkpoint_is_rejected_outside_eval(self, tmp_path, capsys, command):
        # only eval reads it: verify once checked untrained weights and exited 0
        path = write_cfg(tmp_path, extra="ood_class = 2\n")
        ckpt = tmp_path / "model.npz"
        LGNSDEModel(d_in=6, num_classes=3, hidden=8).save(ckpt)
        code, out = run(tmp_path, command, "--config", path, "--checkpoint", str(ckpt))
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert err == [f"usage error: --checkpoint is read by eval only, not by {command}"]
        assert not out.exists()

    def test_help_exits_zero(self):
        proc = run_subprocess("--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: lgnsde")
        assert "--checkpoint" in proc.stdout
        assert proc.stderr == ""

    def test_ood_without_ood_class(self, tmp_path):
        path = write_cfg(tmp_path)
        code, out = run(tmp_path, "ood", "--config", path)
        assert code == 2
        assert not out.exists()

    def test_eval_without_checkpoint(self, tmp_path):
        path = write_cfg(tmp_path)
        code, out = run(tmp_path, "eval", "--config", path)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, message", [
        ("train", "steps = 0\n", "steps must be >= 1"),
        # verify once ended in a traceback from its grid, and in a "diverged:" line
        ("verify", "steps = 100000000000000000000000\n",
         "steps must be <= 2**53, got 100000000000000000000000"),
        ("verify", "steps = 9223372036854775807\n",
         "steps must be <= 2**53, got 9223372036854775807"),
        ("train", "hidden = -3\n", "hidden must be >= 1"),
        ("ood", "ood_class = 9\n", "ood_class 9 outside"),
        ("eval", "", "unreadable checkpoint"),
        ("eval", "sbm_feature_dim = 5\n", "is for 6 features"),
        ("train", "dropout = 1.5\n", "dropout must be in [0,1)"),
        ("train", "mc_samples = 0\n", "mc_samples must be >= 1"),
        ("ood", "ood_class = 2\nmc_samples = 0\n", "mc_samples must be >= 1"),
        ("eval", "mc_samples = 0\n", "mc_samples must be >= 1"),
        ("train", "val_mc = 0\n", "val_mc must be >= 1"),
        ("train", "epochs = -1\n", "epochs must be >= 0"),
        ("train", "sbm_feature_dim = 0\n", "feature_dim must be >= 1"),
        ("train", "sbm_feature_gap = nan\n", "feature_gap must be finite and >= 0, got nan"),
        ("train", "t1 = nan\n", "must be finite"),
        ("train", "g = inf\n", "must be finite"),
        ("train", "g = 1e-320\n", "g must have a finite reciprocal, got 1e-320"),
        ("train", "patience = -1\n", "patience must be >= 0"),
        ("train", "sbm_classes = 1\n", "classes must be >= 2"),
        ("train", "sbm_nodes_per_class = 100000000000000000000000\n",
         "classes * nodes_per_class = 300000000000000000000000 is past the largest array index"),
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
        ("train", "lr = -1\n", "lr must be finite and >= 0"),
        ("train", "lr = nan\n", "lr must be finite and >= 0, got nan"),
        ("train", "lr = inf\n", "lr must be finite and >= 0, got inf"),
        ("train", "seed = -1\n", "seed must be >= 0, got -1"),
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
        code, out = run(tmp_path, *argv)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error:")
        assert message in err[0]
        assert not out.exists()

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        # the flag overrides the config's seed, and is checked as the key is
        code, out = run(tmp_path, "train", "--config", write_cfg(tmp_path), "--seed", "-1")
        assert code == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_unallocatable_count_is_one_line(self, tmp_path, capsys):
        # no training, then a predict whose seed array no machine can hold
        path = write_cfg(tmp_path, extra="epochs = 0\nmc_samples = 1000000000000000000\n")
        code, _ = run(tmp_path, "train", "--config", path)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error: Unable to allocate")

    def test_unallocatable_sbm_is_one_line(self, tmp_path):
        # the SBM draws its pairs row by row, so no pair array refuses an
        # absurd size up front; its labels are still refused before any row
        path = write_cfg(tmp_path, extra="sbm_nodes_per_class = 1000000000000\n")
        proc = run_subprocess("train", "--config", path, "--out", str(tmp_path / "out"))
        err = proc.stderr.strip().splitlines()
        assert proc.returncode == 2
        assert len(err) == 1 and err[0].startswith("config error: Unable to allocate"), proc.stderr
        assert not (tmp_path / "out").exists()

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
            "diverged: eval: MC sample 0: integration diverged at step 0 (t = 0, "
            "max |H| = 4.74): overflow encountered in matmul"], proc.stderr

    def test_eval_decoder_overflow_names_its_sample(self, tmp_path):
        # every solve is finite; the first sample's decoder product overflows
        model = LGNSDEModel(d_in=6, num_classes=3, hidden=8)
        model.W_dec.data = np.where(model.W_dec.data < 0, -1e308, 1e308)
        model.save(tmp_path / "model.npz")
        proc = run_subprocess("eval", "--config", write_cfg(tmp_path), "--out",
                              str(tmp_path / "out"), "--checkpoint",
                              str(tmp_path / "model.npz"))
        assert proc.returncode == 1
        assert proc.stderr.strip().splitlines() == [
            "diverged: eval: MC sample 0: overflow encountered in matmul"], proc.stderr

    def _rewritten_checkpoint(self, tmp_path, config=(), **arrays):
        """A saved 6-feature model with `config` merged into its config and
        `arrays` in place of its parameter arrays."""
        ckpt = tmp_path / "model.npz"
        LGNSDEModel(d_in=6, num_classes=3, hidden=8).save(ckpt)
        with np.load(ckpt) as z:
            saved = dict(z)
        merged = {**json.loads(saved["config"].tobytes()), **dict(config)}
        saved["config"] = np.frombuffer(json.dumps(merged, sort_keys=True).encode(),
                                        dtype=np.uint8)
        np.savez(ckpt, **{**saved, **arrays})
        return ckpt

    def _assert_unreadable(self, tmp_path, ckpt, reason):
        out = tmp_path / "out"
        proc = run_subprocess("eval", "--config", write_cfg(tmp_path), "--out", str(out),
                              "--checkpoint", str(ckpt))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"config error: unreadable checkpoint {str(ckpt)!r}: {reason}"], proc.stderr
        assert not out.exists()

    def test_version_1_checkpoint_is_one_config_error(self, tmp_path):
        # a file of the format before t0 was dropped: version 1, with t0
        ckpt = self._rewritten_checkpoint(
            tmp_path, dict(t0=0.0, mc_samples=20, version=1))
        self._assert_unreadable(tmp_path, ckpt, "unsupported checkpoint version")

    def test_version_2_checkpoint_is_one_config_error(self, tmp_path):
        # a file of the format before mc_samples was dropped
        ckpt = self._rewritten_checkpoint(tmp_path, dict(mc_samples=20, version=2))
        self._assert_unreadable(tmp_path, ckpt, "unsupported checkpoint version")

    def test_complex_parameters_are_one_config_error(self, tmp_path):
        # numpy would drop the imaginary part with a ComplexWarning on stderr
        w_dec = LGNSDEModel(d_in=6, num_classes=3, hidden=8).W_dec.data
        ckpt = self._rewritten_checkpoint(tmp_path, W_dec=w_dec.astype(np.complex128))
        self._assert_unreadable(tmp_path, ckpt,
                                "W_dec has dtype complex128, expected a real floating type")

    @pytest.mark.parametrize("kind, message", [
        ("empty", "No data left in file"), ("truncated", ""), ("text", ""),
        ("no-W1", "'W1 is not a file in the archive'"),
        ("no-config", "'config is not a file in the archive'"),
        ("missing", "[Errno 2] No such file or directory: '{}'")],
        ids=["empty", "truncated", "text", "no-W1", "no-config", "missing"])
    def test_unreadable_checkpoint_is_one_line(self, tmp_path, kind, message):
        ckpt = tmp_path / "model.npz"
        LGNSDEModel(d_in=6, num_classes=3, hidden=8).save(ckpt)
        with np.load(ckpt) as z:
            arrays = dict(z)
        message = message.format(ckpt)
        if kind == "missing":
            ckpt.unlink()
        elif kind == "empty":
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
        assert not out.exists()

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
        assert not out.exists()

    def test_one_class_test_split_stops_before_training(self, tmp_path):
        path = write_cfg(tmp_path, text=SPLIT_3X10, extra="val_count = 5\ntest_count = 1\n")
        out = tmp_path / "out"
        proc = run_subprocess("train", "--config", path, "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [
            "config error: the test mask holds fewer than two classes, "
            "so it cannot be scored"], proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("change", [{"extra": 1}, {"hidden": "8"},
                                        {"steps": 2.5}, {"prior_mu": None}],
                             ids=["unknown", "str-int", "float-int", "null-float"])
    def test_eval_checkpoint_with_bad_config_key(self, tmp_path, capsys, change):
        ckpt = self._rewritten_checkpoint(tmp_path, change)
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
        # every test node once trained too, and train exited 0
        ("train", "test", "node 1 is in both the 'train' and the 'test' list"),
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
        elif index == "test":
            splits[key] += splits["test"]
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

    @pytest.mark.parametrize("dataset, files, message", [
        # a blank line once shifted every later node id by one, silently
        ("bundle", {"nodes.tsv": "0\t0\t1.0\n\n2\t1\t2.0\n3\t1\t3.0\n", "edges.tsv": "0\t2\n"},
         "nodes.tsv:3: node ids must be 0-based contiguous"),
        # the citation once joined only the second 'a', orphaning node 0
        ("cora_raw", {"x.content": "a\t1\tml\nb\t0\tdb\na\t1\tml\n", "x.cites": "a\tb\n"},
         "x.content:3: paper id 'a' is already on line 1"),
        # a file with no node once ended in a numpy reshape or unpack message
        ("bundle", {"nodes.tsv": "", "edges.tsv": ""}, "nodes.tsv: no nodes"),
        ("cora_raw", {"x.content": "\n \t\n", "x.cites": ""}, "x.content: no nodes"),
    ])
    def test_bad_data_line_is_config_error(self, tmp_path, capsys, dataset, files, message):
        d = tmp_path / "data"
        d.mkdir()
        for name, text in files.items():
            (d / name).write_text(text)
        extra = (f"dataset = bundle\nbundle_path = {d}\n" if dataset == "bundle" else
                 f"dataset = cora_raw\ncora_content = {d / 'x.content'}\n"
                 f"cora_cites = {d / 'x.cites'}\n")
        code, out = run(tmp_path, "train", "--config", write_cfg(tmp_path, extra=extra))
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert err == [f"config error: {d / message}"]
        assert not out.exists()

    @pytest.mark.parametrize("label, message", [
        (-1, "node 4 has label -1, outside 0..2"),
        (10 ** 8, "class 3 has no node (the labels must cover 0..100000000)"),
    ])
    def test_bad_bundle_label_is_config_error(self, tmp_path, capsys, label, message):
        # -1 once trained as the last class; 10**8 built a 3 GiB decoder
        graph = sbm_generate(3, 6, 0.3, 0.03, 6, 2.0, seed=0)
        save_bundle(make_splits(graph, SplitSpec(seed=0, train_frac=0.34,
                                                 val_frac=0.33)), tmp_path / "b")
        nodes = tmp_path / "b" / "nodes.tsv"
        lines = nodes.read_text().splitlines()
        fields = lines[4].split("\t")
        fields[1] = str(label)
        lines[4] = "\t".join(fields)
        nodes.write_text("\n".join(lines) + "\n")
        path = write_cfg(tmp_path, extra=f"dataset = bundle\nbundle_path = {tmp_path / 'b'}\n")
        code, out = run(tmp_path, "train", "--config", path)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert err == [f"config error: {nodes}: {message}"]
        assert not out.exists()

    def test_training_divergence_names_its_step(self, tmp_path, capsys):
        path = write_cfg(tmp_path, extra="sbm_nodes_per_class = 6\nprior_mu = 1e308\n")
        code, out = run(tmp_path, "train", "--config", path)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert err == ["diverged: train: training stopped in epoch 0: integration "
                       "diverged at step 0 (t = 0, max |H| = 5.89): overflow "
                       "encountered in multiply; the best parameters were kept"]
        # the text is kept off runlog.json, whose keys stay as they were
        assert sorted(json.loads((out / "runlog.json").read_text())) == [
            "best_epoch", "best_val_acc", "checkpoint_path", "diverged", "epochs"]

    def test_validation_divergence_names_validation(self, tmp_path, capsys):
        # the first Adam step writes parameters near 1e300; the training
        # solve of epoch 0 was finite, the validation predict after it is not
        path = write_cfg(tmp_path, extra="sbm_nodes_per_class = 6\nlr = 1e300\n")
        code, out = run(tmp_path, "train", "--config", path)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert err == ["diverged: train: training stopped in epoch 0: validation "
                       "predict: MC sample 0: integration diverged at step 0 (t = 0, "
                       "max |H| = 9.48e+300): overflow encountered in matmul; the "
                       "best parameters were kept"]
        assert json.loads((out / "runlog.json").read_text())["epochs"] == []

    # at g = 1e308 the test predict after training diverges too
    @pytest.mark.parametrize("extra", ["lr = 1e300\n", "prior_mu = 1e308\n",
                                       "g = 1e200\n", "g = 1e308\n"])
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


    def test_verify_reduction_overflow_names_the_step(self, tmp_path):
        # every solver step is finite at g = 1e160; squaring the state in a
        # lemma's grid reduction overflows
        path = write_cfg(tmp_path, extra="sbm_nodes_per_class = 6\ng = 1e160\n")
        proc = run_subprocess("verify", "--config", path, "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr.strip().splitlines() == [
            "diverged: verify: step 0 ended with a finite state (t = 0.166667, max |H| "
            "= 1.93e+160), but reducing that state failed: overflow encountered in "
            "square"], proc.stderr


class TestHeldOutClass:
    """Only `ood` holds a class out, and it holds it out of every mask."""

    @pytest.mark.parametrize("command", ["generate", "train", "eval", "verify"])
    def test_ood_class_changes_no_other_command(self, tmp_path, monkeypatch, capsys,
                                                command):
        # ood_class shapes the split of ood alone, so the key changes no byte here
        ckpt = tmp_path / "model.npz"
        LGNSDEModel(d_in=6, num_classes=3, hidden=8).save(ckpt)
        written = []
        for name, extra in (("plain", ""), ("ood2", "ood_class = 2\n")):
            path = write_cfg(tmp_path, name=f"{name}.cfg", extra=extra)
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)  # the same relative --out for both
            argv = [command, "--config", path, "--out", "out"]
            if command == "eval":
                argv += ["--checkpoint", str(ckpt)]
            assert main(argv) == 0
            files = {p.relative_to(tmp_path / name): p.read_bytes()
                     for p in sorted((tmp_path / name).rglob("*")) if p.is_file()}
            written.append((files, capsys.readouterr()))
        assert written[0][0]
        assert written[0] == written[1]

    @staticmethod
    def _bundle(tmp_path):
        """A 3x10 SBM bundle split without ood_class, so 3 training nodes a
        class; its graph and a config that runs ood on it."""
        graph = make_splits(sbm_generate(3, 10, 0.3, 0.03, 6, 2.0, seed=0),
                            SplitSpec(seed=0, train_frac=0.3, val_frac=0.3))
        save_bundle(graph, tmp_path / "b")
        return graph, write_cfg(tmp_path, extra=f"dataset = bundle\nbundle_path = "
                                f"{tmp_path / 'b'}\nood_class = 2\nepochs = 2\n")

    def test_ood_never_trains_a_held_out_bundle_node(self, tmp_path, monkeypatch):
        # the bundle's split trains class 2; ood once trained those nodes as class 0
        graph, path = self._bundle(tmp_path)
        held_out = graph.labels == 2
        assert (graph.train_mask & held_out).sum() == 3
        trained = []

        def recording(model, graph, **kw):
            trained.append(graph)
            return train_model(model, graph, **kw)

        monkeypatch.setattr(cli, "train_model", recording)
        code, _ = run(tmp_path, "ood", "--config", path)
        assert code == 0
        (view,) = trained
        assert not (view.train_mask & held_out).any()
        assert np.array_equal(view.train_mask, graph.train_mask & ~held_out)

    def test_bundle_training_only_the_held_out_class(self, tmp_path, capsys):
        graph, path = self._bundle(tmp_path)
        splits_path = tmp_path / "b" / "splits.json"
        splits = json.loads(splits_path.read_text())
        splits["train"] = np.flatnonzero(graph.labels == 2).tolist()
        for key in ("val", "test"):  # the lists stay disjoint
            splits[key] = [i for i in splits[key] if i not in splits["train"]]
        splits_path.write_text(json.dumps(splits))
        code, out = run(tmp_path, "ood", "--config", path)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert err == ["config error: every training node is in held-out class 2"]
        assert not out.exists()


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

    def test_eval_from_checkpoint_matches_train_report(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        code, out = run(tmp_path, "train", "--config", path)
        assert code == 0
        capsys.readouterr()
        out2 = tmp_path / "out_eval"
        code2 = main(["eval", "--config", path, "--out", str(out2),
                      "--checkpoint", str(out / "model.npz")])
        assert code2 == 0
        # eval prints the text it wrote, keys sorted
        text = (out2 / "eval.json").read_text()
        assert capsys.readouterr().out == text
        a = json.loads((out / "eval.json").read_text())
        b = json.loads(text)
        assert a == b
        assert list(b) == sorted(b)

    def test_eval_predicts_with_the_configs_mc_samples(self, tmp_path):
        # the checkpoint holds no count: a model trained with 4 paths is
        # evaluated with the 64 its eval config asks for
        code, out = run(tmp_path, "train", "--config", write_cfg(tmp_path))
        assert code == 0
        cfg64 = write_cfg(tmp_path, name="eval.cfg", extra="mc_samples = 64\n")
        out2 = tmp_path / "out_eval"
        assert main(["eval", "--config", cfg64, "--out", str(out2),
                     "--checkpoint", str(out / "model.npz")]) == 0
        run_cfg = parse_config(cfg64)
        graph = cli.split_dataset(run_cfg, cli.load_dataset(run_cfg))
        model = LGNSDEModel.load(out / "model.npz")
        report, _ = _test_report(model, graph, mc_samples=64, master_seed=run_cfg.seed)
        cli._write_json(tmp_path / "want.json", asdict(report))
        got = (out2 / "eval.json").read_bytes()
        assert got == (tmp_path / "want.json").read_bytes()
        assert got != (out / "eval.json").read_bytes()

    def test_ood_artifacts(self, tmp_path):
        path = write_cfg(tmp_path, extra="ood_class = 2\n")
        code, out = run(tmp_path, "ood", "--config", path)
        assert code == 0
        report = json.loads((out / "ood.json").read_text())
        assert "auroc_ood" in report["ood"]
        assert 0.0 <= report["ood"]["auroc_ood"] <= 1.0
        assert (out / "ood_entropy_hist.csv").exists()

    def test_ood_huge_lr_diverges_cleanly(self, tmp_path, capsys):
        # the first Adam step writes parameters near 1e300; validation diverges
        path = write_cfg(tmp_path, extra="lr = 1e300\nood_class = 2\n")
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

    def test_verify_reads_no_split_key(self, tmp_path, monkeypatch, capsys):
        # no lemma reads a mask, so a split that train refuses changes no
        # byte of verify; verify once failed on it with "empty val mask"
        written = []
        for name, extra in (("plain", ""), ("split", "train_per_class = 3\nval_count = 0\n")):
            path = write_cfg(tmp_path, name=f"{name}.cfg", extra=extra)
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)  # the same relative --out for both
            assert main(["verify", "--config", path, "--out", "out"]) == 0
            files = {p.relative_to(tmp_path / name): p.read_bytes()
                     for p in sorted((tmp_path / name).rglob("*")) if p.is_file()}
            written.append((files, capsys.readouterr()))
        assert len(written[0][0]) == 7
        assert written[0] == written[1]
        assert main(["train", "--config", path, "--out", "train"]) == 2
        assert capsys.readouterr().err == "config error: empty val mask\n"

    def test_gradcheck_exit_zero(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        code, out = run(tmp_path, "gradcheck", "--config", path)
        assert code == 0
        table = json.loads((out / "gradcheck.json").read_text())
        assert table["max"] < 1e-4

    def test_gradcheck_checks_the_configured_prior(self, tmp_path):
        # the check's model takes the config's prior, so an OU or a shifted
        # constant prior gives other gradients than the default; gradcheck
        # once built its model with the default prior whatever the config said
        tables = {}
        for name, extra in (("default", ""), ("ou", "prior_ou_theta = 0.5\n"),
                            ("mu", "prior_mu = 0.3\n")):
            cfg = write_cfg(tmp_path, name=f"{name}.cfg", extra=extra)
            out = tmp_path / name
            assert main(["gradcheck", "--config", cfg, "--out", str(out)]) == 0
            tables[name] = (out / "gradcheck.json").read_bytes()
            assert json.loads(tables[name])["max"] < 1e-4
        assert tables["ou"] != tables["default"] and tables["mu"] != tables["default"]

    def test_gradcheck_failure_is_one_line(self, tmp_path, capsys):
        # the noise swamps the state, so the differences cannot resolve the
        # gradient; the check once exited 1 with nothing on stderr
        code, out = run(tmp_path, "gradcheck", "--config", write_cfg(tmp_path, extra="g = 1e300\n"))
        captured = capsys.readouterr()
        table = json.loads((out / "gradcheck.json").read_text())
        assert code == 1
        assert table["W_enc"] == table["max"] == 1.0
        assert captured.err == "failed: gradcheck: max rel err 1.000e+00 at W_enc, bound 1e-4\n"
        assert "W_enc    max rel err 1.000e+00" in captured.out

    def test_verify_failure_is_one_line_after_every_report(self, tmp_path, capsys,
                                                          monkeypatch):
        # a certificate below the realized constant fails the lemma 2 gate only
        monkeypatch.setattr(verify, "estimate_lipschitz", lambda model: 1e-3)
        code, out = run(tmp_path, "verify", "--config", write_cfg(tmp_path))
        err = capsys.readouterr().err
        summary = json.loads((out / "verify_summary.json").read_text())
        realized = json.loads((out / "lemma2.json").read_text())["L_f_realized"]
        assert code == 1
        assert err == (f"failed: verify: lemma2_pass: certificate: realized L_f "
                       f"{realized:.6g} > certified 0.001\n")
        assert [k for k in summary if k.endswith("_pass") and not summary[k]] == ["lemma2_pass"]
        assert len(list(out.iterdir())) == 7

    @pytest.mark.parametrize("report, flag, message", [
        (0, "output_pass", "lemma1_pass: t = 1: var_y 2 > L_h^2 var_h 1.5"),
        (1, "output_pass", "lemma1_zero_drift_pass: t = 1: var_y 2 > L_h^2 var_h 1.5"),
        (1, "diffusion_pass", "lemma1_zero_drift_pass: t = 1: var_h 1 outside [3, 4]"),
        (2, "certificate_pass", "lemma2_pass: certificate: realized L_f 0.3 > certified 0.2"),
        (2, "pass", "lemma2_pass: t = 1: measured gap 0.02 > realized bound 0.01"),
        (None, None, "resnet_pass: max abs deviation 1e-10, bound 1e-12")])
    def test_verify_failure_names_the_gate_and_its_numbers(self, report, flag, message):
        # every gate passes but one check in the second grid row, or the
        # certificate, or the ResNet deviation; the trained drift's
        # diffusion rows fail, which gates nothing
        lemma1_rows = [{"t": t, "var_h": 1.0, "var_y": 2.0, "output_bound": 1.5,
                        "output_pass": True, "diffusion_low": 3.0, "diffusion_high": 4.0,
                        "diffusion_pass": False} for t in (0.5, 1.0)]
        reports = [{"zero_drift": False, "grid": lemma1_rows},
                   {"zero_drift": True,
                    "grid": [dict(r, diffusion_pass=True) for r in lemma1_rows]},
                   {"L_f_realized": 0.3, "L_f": 0.2, "certificate_pass": True,
                    "grid": [{"t": t, "measured": 0.02, "realized_bound": 0.01,
                              "pass": True} for t in (0.5, 1.0)]}]
        cli._raise_first_failure(*reports, 0.0)  # all pass: nothing raised
        if flag == "certificate_pass":
            reports[report][flag] = False
        elif flag is not None:
            reports[report]["grid"][1][flag] = False
        with pytest.raises(cli.GateFailed) as failed:
            cli._raise_first_failure(*reports, 0.0 if flag else 1e-10)
        assert str(failed.value) == message


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
