"""Command-line surface: generate | train | eval | ood | verify | gradcheck.

Configuration is a plain key=value file ('#' starts a comment); every
report is a pure function of (config, inputs, master seed), so repeated
runs emit byte-identical files. Exit codes: 0 success, 1 validation
failure (a lemma bound violated, divergence), 2 usage or config error;
`main` maps every error to one of them with a one-line message.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .graphdata import (SplitSpec, load_bundle, load_cora_raw, make_splits,
                        ood_view, save_bundle, sbm_generate)
from .metrics import entropy_histogram_csv, entropy_rows, evaluate, ood_evaluate
from .model import LGNSDEModel
from .sde import BrownianPath, DivergedError
from .train import test_report, train_model
from .verify import (elbo_gradient_check, lemma1_check, lemma2_check,
                     resnet_equivalence, write_report)


class ConfigError(Exception):
    pass


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
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in by_name:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            field = by_name[key]
            if val.lower() == "none" and field.default is None:
                parsed = None
            else:
                try:
                    parsed = field.type(val)
                except ValueError as e:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}") from None
            setattr(cfg, key, parsed)
    return cfg


def load_dataset(cfg):
    """The configured graph with its splits."""
    if cfg.dataset == "sbm":
        graph = sbm_generate(cfg.sbm_classes, cfg.sbm_nodes_per_class,
                             cfg.sbm_p_in, cfg.sbm_p_out, cfg.sbm_feature_dim,
                             cfg.sbm_feature_gap, seed=cfg.seed)
    elif cfg.dataset == "bundle":
        if not cfg.bundle_path:
            raise ConfigError("dataset=bundle needs bundle_path")
        graph = load_bundle(cfg.bundle_path)
    elif cfg.dataset == "cora_raw":
        if not (cfg.cora_content and cfg.cora_cites):
            raise ConfigError("dataset=cora_raw needs cora_content and cora_cites")
        graph = load_cora_raw(cfg.cora_content, cfg.cora_cites)
    else:
        raise ConfigError(f"unknown dataset {cfg.dataset!r}")
    if graph.train_mask is None:
        spec = SplitSpec(seed=cfg.seed, train_per_class=cfg.train_per_class,
                         val_count=cfg.val_count, test_count=cfg.test_count,
                         train_frac=cfg.train_frac, val_frac=cfg.val_frac,
                         ood_class=cfg.ood_class)
        if cfg.dataset == "cora_raw" and cfg.train_per_class is None and cfg.train_frac is None:
            spec.train_per_class = 20
        graph = make_splits(graph, spec)
    return graph


def build_model(cfg, graph):
    return LGNSDEModel(d_in=graph.d_in, num_classes=graph.num_classes,
                       hidden=cfg.hidden, t1=cfg.t1, steps=cfg.steps,
                       g=cfg.g, scheme=cfg.scheme, dropout=cfg.dropout,
                       mc_samples=cfg.mc_samples, prior_mu=cfg.prior_mu,
                       prior_ou_theta=cfg.prior_ou_theta, seed=cfg.seed)


def run_training(command, cfg, model, graph, ckpt):
    """train_model with the configured settings, then save the model to
    `ckpt`; one stderr line naming `command` if it diverged."""
    log = train_model(model, graph, epochs=cfg.epochs, patience=cfg.patience,
                      lr=cfg.lr, seed=cfg.seed, val_mc=cfg.val_mc,
                      kl_weight=cfg.kl_weight, verbose=True)
    if log.diverged:
        print(f"diverged: {command}: training stopped in epoch {len(log.epochs)}, "
              f"the best parameters were kept", file=sys.stderr)
    model.save(ckpt)
    # basename only: keeps runlog.json byte-identical across output dirs
    log.checkpoint_path = os.path.basename(ckpt)
    return log


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def cmd_generate(cfg, out):
    graph = load_dataset(cfg)
    dest = os.path.join(out, "bundle")
    save_bundle(graph, dest)
    print(f"wrote bundle with {graph.n} nodes, {len(graph.edges)} edges to {dest}")
    return 0


def cmd_train(cfg, out):
    graph = load_dataset(cfg)
    model = build_model(cfg, graph)
    log = run_training("train", cfg, model, graph, os.path.join(out, "model.npz"))
    report, probs = test_report(model, graph, master_seed=cfg.seed)
    _write_json(os.path.join(out, "runlog.json"), asdict(log))
    report.to_json(os.path.join(out, "eval.json"))
    ent = entropy_rows(probs[graph.test_mask])
    correct = probs[graph.test_mask].argmax(axis=1) == graph.labels[graph.test_mask]
    entropy_histogram_csv(os.path.join(out, "entropy_hist.csv"),
                          ent[correct], ent[~correct],
                          label_a="correct", label_b="incorrect")
    print(report.to_json())
    return 1 if log.diverged else 0


def cmd_eval(cfg, out, checkpoint):
    if not checkpoint or not os.path.exists(checkpoint):
        raise ConfigError(f"missing checkpoint {checkpoint!r}")
    graph = load_dataset(cfg)
    model = LGNSDEModel.load(checkpoint)
    if (model.d_in, model.num_classes) != (graph.d_in, graph.num_classes):
        raise ConfigError(f"checkpoint {checkpoint!r} is for {model.d_in} features and "
                          f"{model.num_classes} classes, the dataset has "
                          f"{graph.d_in} and {graph.num_classes}")
    report, probs = test_report(model, graph, master_seed=cfg.seed)
    report.to_json(os.path.join(out, "eval.json"))
    print(report.to_json())
    return 0


def cmd_ood(cfg, out):
    if cfg.ood_class is None:
        raise ConfigError("ood requires ood_class in the config")
    graph = load_dataset(cfg)
    view, is_ood = ood_view(graph, cfg.ood_class)
    model = build_model(cfg, view)
    log = run_training("ood", cfg, model, view, os.path.join(out, "model_ood.npz"))
    probs = model.predict(view, master_seed=cfg.seed)
    test = np.asarray(view.test_mask, dtype=bool)
    block = ood_evaluate(probs[test], is_ood[test], labels=view.labels[test])
    in_test = test & ~is_ood
    report = evaluate(probs, view.labels, in_test)
    report.ood = block
    _write_json(os.path.join(out, "runlog.json"), asdict(log))
    report.to_json(os.path.join(out, "ood.json"))
    ent = entropy_rows(probs[test])
    entropy_histogram_csv(os.path.join(out, "ood_entropy_hist.csv"),
                          ent[~is_ood[test]], ent[is_ood[test]],
                          label_a="in", label_b="ood")
    print(report.to_json())
    return 1 if log.diverged else 0


def cmd_verify(cfg, out):
    graph = load_dataset(cfg)
    model = build_model(cfg, graph)
    l1 = lemma1_check(model, graph, seed=cfg.seed)
    l1z = lemma1_check(model, graph, seed=cfg.seed + 1, zero_drift=True)
    l2 = lemma2_check(model, graph, seed=cfg.seed)
    sde_cfg = model.sde_config
    path = BrownianPath(cfg.seed, sde_cfg.steps, graph.n, model.hidden,
                        sde_cfg.t0, sde_cfg.t1)
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
    ok = all(summary[k] for k in
             ("lemma1_pass", "lemma1_zero_drift_pass", "lemma2_pass", "resnet_pass"))
    return 0 if ok else 1


def cmd_gradcheck(cfg, out):
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    graph = sbm_generate(2, 3, 0.6, 0.2, 3, 1.0, seed=cfg.seed)
    graph = make_splits(graph, SplitSpec(seed=cfg.seed, train_frac=0.34, val_frac=0.33))
    model = LGNSDEModel(d_in=graph.d_in, num_classes=graph.num_classes,
                        hidden=2, steps=4, g=cfg.g, scheme=cfg.scheme,
                        dropout=0.0, seed=cfg.seed)
    path = BrownianPath(int(rng.integers(2 ** 31)), 4, graph.n, 2)
    table = elbo_gradient_check(model, graph, path)
    _write_json(os.path.join(out, "gradcheck.json"), table)
    for name, err in table.items():
        print(f"{name:8s} max rel err {err:.3e}")
    return 0 if table["max"] < 1e-4 else 1


COMMANDS = {"generate": cmd_generate, "train": cmd_train, "eval": cmd_eval,
            "ood": cmd_ood, "verify": cmd_verify, "gradcheck": cmd_gradcheck}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="lgnsde")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--checkpoint", default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2
    # an overflow or NaN raises where it is made, so no numpy warning
    # reaches stderr before the one diagnostic line
    try:
        with np.errstate(all="raise", under="ignore"):
            cfg = parse_config(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
            out = args.out or cfg.out_dir
            os.makedirs(out, exist_ok=True)
            if args.command == "eval":
                return cmd_eval(cfg, out, args.checkpoint)
            return COMMANDS[args.command](cfg, out)
    except (ConfigError, ValueError, OSError, MemoryError) as e:
        # MemoryError: a count too large to allocate, such as mc_samples
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DivergedError, FloatingPointError) as e:
        print(f"diverged: {args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
