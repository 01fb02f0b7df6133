"""Print an md5 manifest of everything the six lgnsde commands write.

Runs generate, train, eval (of train's model.npz), ood, verify and
gradcheck in process, with BLAS on one thread, on a 3x12 SBM (the
determinism criterion's config plus ``ood_class = 2``) for each scheme
(srk, em), prior (none, ``prior_mu = 0.3``, ``prior_ou_theta = 0.5``) and
seed (0, 1): 12 cells of 6 commands. Each cell runs in a fresh temporary
directory with relative paths, so no output names the directory. One
sorted line per written file and per command's stdout, stderr and exit
code, ``<md5>  <cell>/<command>/<file>`` or ``<md5>  <cell>/<command>.exit``,
makes 456 lines. The exit status is 1 if any command exited non-zero.

Two runs of one version must print the same manifest. To compare two
versions, run each with its own source tree first on the path and diff:

    PYTHONPATH=src python tools/report_md5.py > after.txt
"""

import os

# before numpy loads: another thread count may round a dense product
# differently, so every manifest is taken on one thread
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

from lgnsde import cli

CONFIG = """dataset = sbm
sbm_nodes_per_class = 12
train_frac = 0.3
val_frac = 0.3
hidden = 8
steps = 6
mc_samples = 4
val_mc = 1
epochs = 10
patience = 10
ood_class = 2
"""
SCHEMES = ("srk", "em")
PRIORS = {"none": "", "mu": "prior_mu = 0.3\n", "ou": "prior_ou_theta = 0.5\n"}
SEEDS = (0, 1)
COMMANDS = ("generate", "train", "eval", "ood", "verify", "gradcheck")


def md5(data):
    return hashlib.md5(data).hexdigest()


def run_cell(cell, config):
    """Run every command of one cell in the current directory; return its
    manifest entries as (name, md5) pairs and its exit codes."""
    cfg = Path(f"{cell}.cfg")
    cfg.write_text(config)
    entries, codes = [], []
    for command in COMMANDS:
        argv = [command, "--config", str(cfg), "--out", f"{cell}/{command}"]
        if command == "eval":
            argv += ["--checkpoint", f"{cell}/train/model.npz"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        codes.append(code)
        for stream, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                             ("exit", str(code))):
            entries.append((f"{cell}/{command}.{stream}", md5(text.encode())))
    entries += [(p.as_posix(), md5(p.read_bytes()))
                for p in Path(cell).rglob("*") if p.is_file()]
    return entries, codes


def main():
    entries, codes = [], []
    start = os.getcwd()
    for scheme, prior, seed in itertools.product(SCHEMES, PRIORS, SEEDS):
        cell = f"{scheme}-{prior}-seed{seed}"
        config = CONFIG + f"scheme = {scheme}\n{PRIORS[prior]}seed = {seed}\n"
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                cell_entries, cell_codes = run_cell(cell, config)
            finally:
                os.chdir(start)
        entries += cell_entries
        codes += cell_codes
    for name, digest in sorted(entries):
        print(f"{digest}  {name}")
    failed = sum(code != 0 for code in codes)
    if failed:
        print(f"{failed} of {len(codes)} commands exited non-zero", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
