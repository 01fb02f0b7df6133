"""The benchmark's three workloads, each one user-facing job of lgnsde.

Every workload has the same shape: ``build()`` makes its inputs from the
seed, ``job(warm_up)`` runs the job once through the public API and returns
its result, ``check(result)`` lists what is wrong with that result (an
empty list means correct), and ``units`` says how many ops one timed job
counts for. Sizes come in two scales: ``full`` is the benchmark, ``toy``
keeps the self-test fast.
"""

import contextlib
import io
import json
import os

import numpy as np

# Calls go through the lgnsde namespaces so the traced run sees them.
import lgnsde
from lgnsde import cli

# Cora stand-in from ROADMAP: 7x387 nodes, 1433 features, about 5.3k edges.
CORA_SBM = {
    "full": dict(graph=(7, 387, 0.0082, 0.00032, 1433, 2.0),
                 splits=dict(train_per_class=20, val_count=500, test_count=1000),
                 model=dict(hidden=64, steps=16, dropout=0.2)),
    "toy": dict(graph=(3, 10, 0.3, 0.03, 8, 2.0),
                splits=dict(train_per_class=3, val_count=6, test_count=10),
                model=dict(hidden=4, steps=4, dropout=0.2)),
}
EPOCHS_PER_JOB = 2     # one train_model call; patience = epochs
VAL_MC = 2
PREDICT_MC = 20
WARM_UP_MC = 2

# The verify graph is fixed: verify time grows with nnz, which varies by up
# to 25% between SBM seeds at 36 nodes. The seed varies the splits, the
# model weights and every Monte-Carlo path. The warm-up verify runs the
# same graph and model with fewer steps.
VERIFY_GRAPH = dict(classes=3, p_in=0.3, p_out=0.03, feature_dim=8,
                    feature_gap=2.0, seed=0)
VERIFY_SIZES = {"full": dict(nodes_per_class=12, hidden=8, steps=16),
                "toy": dict(nodes_per_class=4, hidden=4, steps=4)}
VERIFY_WARM_UP_STEPS = 2
_VERIFY_CONFIG = """\
dataset = bundle
bundle_path = {bundle}
train_frac = 0.3
val_frac = 0.3
hidden = {hidden}
steps = {steps}
"""


def _not_finite(name, values):
    return [] if np.all(np.isfinite(values)) else [f"{name} is not finite"]


class _CoraSBM:
    """Shared inputs of the train and predict workloads."""

    units = 1

    def __init__(self, scale, seed, workdir):
        self.size = CORA_SBM[scale]
        self.seed = seed

    def build(self):
        graph = lgnsde.sbm_generate(*self.size["graph"], seed=self.seed)
        self.graph = lgnsde.make_splits(
            graph, lgnsde.SplitSpec(seed=self.seed, **self.size["splits"]))
        self.model = lgnsde.LGNSDEModel(self.graph.d_in, self.graph.num_classes,
                                        seed=self.seed, **self.size["model"])
        self.initial = [p.data.copy() for p in self.model.parameters()]


class Train(_CoraSBM):
    """``train_model`` for a fixed number of epochs from the same start.

    Each job restores the seed-initialised parameters first, so every job
    does the same work and the last val NLL is a pure function of the seed.
    """

    units = EPOCHS_PER_JOB

    def job(self, warm_up=False):
        for p, data in zip(self.model.parameters(), self.initial):
            p.data = data.copy()
        epochs = 1 if warm_up else EPOCHS_PER_JOB
        log = lgnsde.train_model(self.model, self.graph, epochs=epochs,
                                 patience=epochs, seed=self.seed, val_mc=VAL_MC)
        return log, epochs

    def check(self, result):
        log, epochs = result
        problems = ["training diverged"] if log.diverged else []
        if len(log.epochs) != epochs:
            problems.append(f"ran {len(log.epochs)} of {epochs} epochs")
        problems += _not_finite("train loss", [e["train_loss"] for e in log.epochs])
        problems += _not_finite("val NLL", [e["val_nll"] for e in log.epochs])
        return problems

    @staticmethod
    def val_nll(result):
        return result[0].epochs[-1]["val_nll"]


class Predict(_CoraSBM):
    """MC predict and score on the test nodes, a new master seed per job."""

    def __init__(self, scale, seed, workdir):
        super().__init__(scale, seed, workdir)
        self._jobs = 0

    def job(self, warm_up=False):
        master_seed = int(np.random.SeedSequence([self.seed, self._jobs])
                          .generate_state(1)[0])
        self._jobs += 1
        mc = WARM_UP_MC if warm_up else PREDICT_MC
        report, probs = lgnsde.test_report(self.model, self.graph,
                                           master_seed=master_seed, mc_samples=mc)
        return report, probs

    def check(self, result):
        report, probs = result
        if probs.shape != (self.graph.n, self.graph.num_classes):
            return [f"probabilities have shape {probs.shape}"]
        problems = _not_finite("probabilities", probs)
        worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
        if not worst <= 1e-9:
            problems.append(f"a probability row sums to 1 {worst:+.3g}")
        return problems + _not_finite("accuracy", report.accuracy)


class Verify:
    """``lgnsde verify`` in process on a fixed 3x12-node SBM bundle."""

    units = 1

    def __init__(self, scale, seed, workdir):
        self.size = VERIFY_SIZES[scale]
        self.seed = seed
        self.workdir = workdir

    def build(self):
        bundle = os.path.join(self.workdir, "graph")
        graph = lgnsde.sbm_generate(nodes_per_class=self.size["nodes_per_class"],
                                    **VERIFY_GRAPH)
        lgnsde.save_bundle(graph, bundle)
        self.configs = {}
        for warm_up, steps in ((False, self.size["steps"]), (True, VERIFY_WARM_UP_STEPS)):
            self.configs[warm_up] = os.path.join(
                self.workdir, "warm_up.cfg" if warm_up else "verify.cfg")
            with open(self.configs[warm_up], "w") as f:
                f.write(_VERIFY_CONFIG.format(bundle=bundle, hidden=self.size["hidden"],
                                              steps=steps))

    def job(self, warm_up=False):
        out = os.path.join(self.workdir, "out")
        summary = os.path.join(out, "verify_summary.json")
        if os.path.exists(summary):
            os.remove(summary)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--config", self.configs[warm_up],
                             "--seed", str(self.seed), "--out", out])
        with open(summary) as f:
            return code, json.load(f)

    def check(self, result):
        code, summary = result
        problems = [] if code == 0 else [f"verify exited {code}"]
        problems += [f"{flag} is false" for flag in
                     ("lemma1_pass", "lemma1_zero_drift_pass", "lemma2_pass", "resnet_pass")
                     if summary[flag] is not True]
        dev = summary["resnet_max_abs_deviation"]
        if not dev < 1e-12:
            problems.append(f"resnet deviation {dev!r} is not below 1e-12")
        return problems


WORKLOADS = {"train-cora-sbm": Train, "predict-cora-sbm": Predict,
             "verify-small": Verify}
