"""Command-line surface: generate | train | eval | ood | verify | gradcheck.

Configuration is a plain key=value file ('#' starts a comment); every
report is a pure function of (config, inputs, master seed) at a fixed BLAS
thread count and kernel, so repeated runs with the same BLAS setting emit
byte-identical files (another thread count may round a dense product
differently: model.npz has differed by 2.3e-16). Exit codes: 0 success,
1 validation failure (a failed check of verify or gradcheck, divergence),
2 usage or config error. A command fails only by raising, and `main` alone
maps each error to its code and one stderr line. A command makes its
output directory only once its config, data and checkpoint have loaded
and passed their checks, so a config error leaves none behind.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from .graphdata import (SplitSpec, load_bundle, load_cora_raw, make_splits,
                        ood_view, save_bundle, sbm_generate)
from .metrics import entropy_histogram_csv, entropy_rows, evaluate, ood_evaluate
from .model import LGNSDEModel
from .sde import BrownianPath, DivergedError
from .train import check_settings, test_report, train_model
from .verify import (elbo_gradient_check, lemma1_check, lemma2_check,
                     resnet_equivalence, write_report)


class GateFailed(Exception):
    """A check of verify or gradcheck failed; raised once every report is written."""


@dataclass
class RunConfig:
    # dataset
    dataset: str = "sbm"            # sbm | bundle | cora_raw
    bundle_path: str = None
    cora_content: str = None
    cora_cites: str = None
    sbm_classes: int = 3
    sbm_nodes_per_class: int = 40
    sbm_p_in: float = 0.2
    sbm_p_out: float = 0.02
    sbm_feature_dim: int = 8
    sbm_feature_gap: float = 2.0
    # model hyperparameters (defaults follow the reference configuration)
    hidden: int = 64
    t1: float = 1.0
    g: float = 1.0
    dropout: float = 0.2
    lr: float = 0.01
    steps: int = 16
    scheme: str = "srk"
    mc_samples: int = 20
    epochs: int = 300
    patience: int = 50
    prior_mu: float = 0.0
    prior_ou_theta: float = None
    kl_weight: float = None     # None = auto: 1 / (n * hidden)
    val_mc: int = 2
    # split
    train_per_class: int = None
    val_count: int = 500
    test_count: int = 1000
    train_frac: float = None
    val_frac: float = None
    ood_class: int = None
    # run
    seed: int = 0
    out_dir: str = "runs"


def parse_config(path):
    """RunConfig from a key = value file. Each value is converted to its
    field's annotated type; `none` is accepted only where the default is None."""
    cfg = RunConfig()
    by_name = {f.name: f for f in fields(RunConfig)}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in by_name:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            field = by_name[key]
            if val.lower() == "none" and field.default is None:
                parsed = None
            else:
                try:
                    parsed = field.type(val)
                except ValueError as e:
                    raise ValueError(f"{path}:{lineno}: bad value for {key}: {e}") from None
            setattr(cfg, key, parsed)
    return cfg


def load_dataset(cfg):
    """The configured graph, with the masks of a bundle's splits.json."""
    if cfg.dataset == "sbm":
        return sbm_generate(cfg.sbm_classes, cfg.sbm_nodes_per_class,
                            cfg.sbm_p_in, cfg.sbm_p_out, cfg.sbm_feature_dim,
                            cfg.sbm_feature_gap, seed=cfg.seed)
    if cfg.dataset == "bundle":
        if not cfg.bundle_path:
            raise ValueError("dataset=bundle needs bundle_path")
        return load_bundle(cfg.bundle_path)
    if cfg.dataset == "cora_raw":
        if not (cfg.cora_content and cfg.cora_cites):
            raise ValueError("dataset=cora_raw needs cora_content and cora_cites")
        return load_cora_raw(cfg.cora_content, cfg.cora_cites)
    raise ValueError(f"unknown dataset {cfg.dataset!r}")


def split_dataset(cfg, graph, ood_class=None):
    """`graph` with the configured train/val/test masks; one that has masks
    (a bundle's split) is returned as given. The split trains no node of
    `ood_class`, which only ``ood`` names."""
    if graph.train_mask is not None:
        return graph
    spec = SplitSpec(seed=cfg.seed, train_per_class=cfg.train_per_class,
                     val_count=cfg.val_count, test_count=cfg.test_count,
                     train_frac=cfg.train_frac, val_frac=cfg.val_frac,
                     ood_class=ood_class)
    if cfg.dataset == "cora_raw" and cfg.train_per_class is None and cfg.train_frac is None:
        spec.train_per_class = 20
    return make_splits(graph, spec)


def build_model(cfg, graph):
    return LGNSDEModel(d_in=graph.d_in, num_classes=graph.num_classes,
                       hidden=cfg.hidden, t1=cfg.t1, steps=cfg.steps,
                       g=cfg.g, scheme=cfg.scheme, dropout=cfg.dropout,
                       mc_samples=cfg.mc_samples, prior_mu=cfg.prior_mu,
                       prior_ou_theta=cfg.prior_ou_theta, seed=cfg.seed)


@contextmanager
def run_training(cfg, model, graph, out, name):
    """Check the configured training settings, make `out`, run train_model
    with them, save the model to out/name and hand the RunLog to the
    command's reports. If training diverged, one DivergedError says so
    once the reports are made, or also names the test predict's own
    divergence if they cannot be."""
    check_settings(cfg.epochs, cfg.patience, cfg.lr, cfg.val_mc, cfg.kl_weight)
    os.makedirs(out, exist_ok=True)
    log = train_model(model, graph, epochs=cfg.epochs, patience=cfg.patience,
                      lr=cfg.lr, seed=cfg.seed, val_mc=cfg.val_mc,
                      kl_weight=cfg.kl_weight, verbose=True)
    model.save(os.path.join(out, name))
    # the name only: keeps runlog.json byte-identical across output dirs
    log.checkpoint_path = name
    if not log.diverged:
        yield log
        return
    stopped = (f"training stopped in epoch {len(log.epochs)}: {log.divergence}; "
               "the best parameters were kept")
    try:
        yield log
    except FloatingPointError as e:
        raise DivergedError(f"{stopped}; test predict: {e}") from e
    raise DivergedError(stopped)


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def cmd_generate(cfg, out):
    graph = split_dataset(cfg, load_dataset(cfg))
    dest = os.path.join(out, "bundle")
    save_bundle(graph, dest)
    print(f"wrote bundle with {graph.n} nodes, {len(graph.edges)} edges to {dest}")


def cmd_train(cfg, out):
    graph = split_dataset(cfg, load_dataset(cfg))
    model = build_model(cfg, graph)
    with run_training(cfg, model, graph, out, "model.npz") as log:
        _write_json(os.path.join(out, "runlog.json"), asdict(log))
        report, probs = test_report(model, graph, master_seed=cfg.seed)
        report.to_json(os.path.join(out, "eval.json"))
        ent = entropy_rows(probs[graph.test_mask])
        correct = probs[graph.test_mask].argmax(axis=1) == graph.labels[graph.test_mask]
        entropy_histogram_csv(os.path.join(out, "entropy_hist.csv"),
                              ent[correct], ent[~correct],
                              label_a="correct", label_b="incorrect")
        print(report.to_json())


def cmd_eval(cfg, out, checkpoint):
    model = LGNSDEModel.load(checkpoint)
    graph = split_dataset(cfg, load_dataset(cfg))
    if (model.d_in, model.num_classes) != (graph.d_in, graph.num_classes):
        raise ValueError(f"checkpoint {checkpoint!r} is for {model.d_in} features and "
                         f"{model.num_classes} classes, the dataset has "
                         f"{graph.d_in} and {graph.num_classes}")
    os.makedirs(out, exist_ok=True)
    report, probs = test_report(model, graph, master_seed=cfg.seed)
    report.to_json(os.path.join(out, "eval.json"))
    print(report.to_json())


def cmd_ood(cfg, out):
    if cfg.ood_class is None:
        raise ValueError("ood requires ood_class in the config")
    graph = split_dataset(cfg, load_dataset(cfg), cfg.ood_class)
    view, is_ood = ood_view(graph, cfg.ood_class)
    model = build_model(cfg, view)
    with run_training(cfg, model, view, out, "model_ood.npz") as log:
        _write_json(os.path.join(out, "runlog.json"), asdict(log))
        probs = model.predict(view, master_seed=cfg.seed)
        test = np.asarray(view.test_mask, dtype=bool)
        block = ood_evaluate(probs[test], is_ood[test], labels=view.labels[test])
        in_test = test & ~is_ood
        report = evaluate(probs, view.labels, in_test)
        report.ood = block
        report.to_json(os.path.join(out, "ood.json"))
        ent = entropy_rows(probs[test])
        entropy_histogram_csv(os.path.join(out, "ood_entropy_hist.csv"),
                              ent[~is_ood[test]], ent[is_ood[test]],
                              label_a="in", label_b="ood")
        print(report.to_json())


def _raise_first_failure(l1, l1z, l2, resnet_dev):
    """Raise GateFailed naming the first failing gate of verify with its numbers."""
    for gate, report in (("lemma1_pass", l1), ("lemma1_zero_drift_pass", l1z)):
        for r in report["grid"]:
            at = f"{gate}: t = {r['t']:g}"
            if not r["output_pass"]:
                raise GateFailed(f"{at}: var_y {r['var_y']:.6g} > "
                                 f"L_h^2 var_h {r['output_bound']:.6g}")
            if report["zero_drift"] and not r["diffusion_pass"]:
                raise GateFailed(f"{at}: var_h {r['var_h']:.6g} outside "
                                 f"[{r['diffusion_low']:.6g}, {r['diffusion_high']:.6g}]")
    if not l2["certificate_pass"]:
        raise GateFailed(f"lemma2_pass: certificate: realized L_f {l2['L_f_realized']:.6g} "
                         f"> certified {l2['L_f']:.6g}")
    for r in l2["grid"]:
        if not r["pass"]:
            raise GateFailed(f"lemma2_pass: t = {r['t']:g}: measured gap {r['measured']:.6g} "
                             f"> realized bound {r['realized_bound']:.6g}")
    if not resnet_dev < 1e-12:
        raise GateFailed(f"resnet_pass: max abs deviation {resnet_dev:.3g}, bound 1e-12")


def cmd_verify(cfg, out):
    graph = load_dataset(cfg)
    model = build_model(cfg, graph)
    os.makedirs(out, exist_ok=True)
    l1 = lemma1_check(model, graph, seed=cfg.seed)
    l1z = lemma1_check(model, graph, seed=cfg.seed + 1, zero_drift=True)
    l2 = lemma2_check(model, graph, seed=cfg.seed)
    sde_cfg = model.sde_config
    path = BrownianPath(cfg.seed, sde_cfg.steps, graph.n, model.hidden, t1=sde_cfg.t1)
    resnet_dev = resnet_equivalence(model, graph, path)
    write_report(l1, os.path.join(out, "lemma1.json"), os.path.join(out, "lemma1.csv"))
    write_report(l1z, os.path.join(out, "lemma1_zero_drift.json"),
                 os.path.join(out, "lemma1_zero_drift.csv"))
    write_report(l2, os.path.join(out, "lemma2.json"), os.path.join(out, "lemma2.csv"))
    summary = {"lemma1_pass": l1["pass"], "lemma1_zero_drift_pass": l1z["pass"],
               "lemma2_pass": l2["pass"], "resnet_max_abs_deviation": resnet_dev,
               "resnet_pass": resnet_dev < 1e-12,
               "lipschitz": {"L_f": l2["L_f"], "L_h": l1["L_h"]}}
    _write_json(os.path.join(out, "verify_summary.json"), summary)
    print(json.dumps(summary, sort_keys=True, indent=2))
    _raise_first_failure(l1, l1z, l2, resnet_dev)


def cmd_gradcheck(cfg, out):
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    graph = sbm_generate(2, 3, 0.6, 0.2, 3, 1.0, seed=cfg.seed)
    graph = make_splits(graph, SplitSpec(seed=cfg.seed, train_frac=0.34, val_frac=0.33))
    model = LGNSDEModel(d_in=graph.d_in, num_classes=graph.num_classes,
                        hidden=2, t1=cfg.t1, steps=4, g=cfg.g, scheme=cfg.scheme,
                        dropout=0.0, prior_mu=cfg.prior_mu,
                        prior_ou_theta=cfg.prior_ou_theta, seed=cfg.seed)
    os.makedirs(out, exist_ok=True)
    grid = model.sde_config
    path = BrownianPath(int(rng.integers(2 ** 31)), grid.steps, graph.n, model.hidden, t1=grid.t1)
    table = elbo_gradient_check(model, graph, path)
    _write_json(os.path.join(out, "gradcheck.json"), table)
    for name, err in table.items():
        print(f"{name:8s} max rel err {err:.3e}")
    if not table["max"] < 1e-4:
        worst = max((k for k in table if k != "max"), key=table.get)
        raise GateFailed(f"max rel err {table[worst]:.3e} at {worst}, bound 1e-4")


COMMANDS = {"generate": cmd_generate, "train": cmd_train, "eval": cmd_eval,
            "ood": cmd_ood, "verify": cmd_verify, "gradcheck": cmd_gradcheck}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """One stderr line and exit 2, not argparse's usage block."""
        self.exit(2, f"usage error: {message}\n")


def main(argv=None):
    parser = _Parser(prog="lgnsde")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--checkpoint", default=None,
                        help="the model.npz to evaluate: required by eval, "
                             "rejected by every other command")
    try:
        args = parser.parse_args(argv)
        if args.command == "eval" and args.checkpoint is None:
            parser.error("eval requires --checkpoint")
        if args.command != "eval" and args.checkpoint is not None:
            parser.error(f"--checkpoint is read by eval only, not by {args.command}")
    except SystemExit as e:  # 0 after --help, 2 after a usage error
        return e.code
    # an overflow or NaN raises where it is made, so no numpy warning
    # reaches stderr before the one diagnostic line
    try:
        with np.errstate(all="raise", under="ignore"):
            cfg = parse_config(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
            out = args.out or cfg.out_dir
            if args.command == "eval":
                cmd_eval(cfg, out, args.checkpoint)
            else:
                COMMANDS[args.command](cfg, out)
    except (ValueError, OSError, MemoryError) as e:
        # MemoryError: a count too large to allocate, such as mc_samples
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (FloatingPointError, GateFailed) as e:  # DivergedError is a FloatingPointError
        kind = "failed" if isinstance(e, GateFailed) else "diverged"
        print(f"{kind}: {args.command}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
