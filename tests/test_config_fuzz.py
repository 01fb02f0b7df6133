"""Fuzz the config surface through all six commands: a tiny SBM config with
1-3 RunConfig keys set to nan, +-inf, 1e308, an integer past 2**64, a
negative, zero, a string or `none` either runs, or ends in one
`config error:` or `usage error:` line with exit 2, or one `diverged:` or
`failed:` line with exit 1, never a traceback. Sizes stay small; a count
too large to allocate has its own test in test_cli.py, and a mid-size count
such as 10**12 steps would run for hours, not fail."""

import contextlib
import io
import os
import tempfile
from dataclasses import fields

import pytest

from lgnsde.cli import COMMANDS, RunConfig, main
from lgnsde.model import LGNSDEModel

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BASE = {"dataset": "sbm", "sbm_classes": "3", "sbm_nodes_per_class": "6",
        "sbm_p_in": "0.3", "sbm_p_out": "0.03", "sbm_feature_dim": "4",
        "train_frac": "0.34", "val_frac": "0.33", "hidden": "4", "steps": "2",
        "mc_samples": "2", "val_mc": "1", "epochs": "2", "patience": "2",
        "ood_class": "2", "seed": "0"}
KEYS = sorted(f.name for f in fields(RunConfig))
VALUES = ("nan", "inf", "-inf", "1e308", "100000000000000000000000", "-1", "-1e-3", "0",
          "x", "none")


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A model for the base config's graph, for eval."""
    path = tmp_path_factory.mktemp("fuzz") / "model.npz"
    LGNSDEModel(d_in=4, num_classes=3, hidden=4, steps=2).save(path)
    return str(path)


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=40,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(edits=st.dictionaries(st.sampled_from(KEYS), st.sampled_from(VALUES),
                                        min_size=1, max_size=3))
def test_edited_config_exits_with_one_line(checkpoint, edits):
    with tempfile.TemporaryDirectory() as d:
        cfg = os.path.join(d, "run.cfg")
        with open(cfg, "w") as f:
            f.writelines(f"{k} = {v}\n" for k, v in {**BASE, **edits}.items())
        for command in COMMANDS:
            argv = [command, "--config", cfg, "--out", os.path.join(d, command)]
            if command == "eval":
                argv += ["--checkpoint", checkpoint]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            # training prints its progress to stderr
            lines = [s for s in err.getvalue().splitlines() if not s.startswith("epoch ")]
            where = f"{command} {edits}: exit {code}, {lines}"
            if code == 0:
                assert lines == [], where
            else:
                prefix = ("diverged:", "failed:") if code == 1 else ("config error:",
                                                                    "usage error:")
                assert code in (1, 2), where
                assert len(lines) == 1 and lines[0].startswith(prefix), where
