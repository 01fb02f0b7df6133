"""Walkthrough: train the latent-SDE classifier on a synthetic SBM graph.

Generates a 3-community stochastic block model, trains with the ELBO-style
objective, and looks at how predictive entropy lines up with mistakes.

Run from the repo root:  python3 demos/train_sbm.py
"""

import numpy as np

from lgnsde import (LGNSDEModel, SplitSpec, entropy_rows, evaluate,
                    make_splits, sbm_generate, train_model)

seed = 0
print("== data ==")
graph = sbm_generate(classes=3, nodes_per_class=40, p_in=0.2, p_out=0.02,
                     feature_dim=8, feature_gap=2.0, seed=seed)
graph = make_splits(graph, SplitSpec(seed=seed, train_frac=0.3, val_frac=0.3))
print(f"{graph.n} nodes, {len(graph.edges)} edges, "
      f"{int(graph.train_mask.sum())} train / {int(graph.test_mask.sum())} test")

print("\n== training ==")
model = LGNSDEModel(graph.d_in, graph.num_classes, hidden=16, steps=8, seed=seed)
log = train_model(model, graph, epochs=80, patience=80, lr=0.01, seed=seed,
                  val_mc=1, verbose=True)
print(f"best val acc {log.best_val_acc:.3f} at epoch {log.best_epoch}")

print("\n== test-time uncertainty ==")
# the mean over the MC samples, and the samples themselves for their spread
probs, samples = model.predict(graph, mc_samples=20, master_seed=seed,
                               return_samples=True)
test = graph.test_mask
report = evaluate(probs, graph.labels, test)
print(f"test accuracy   {report.accuracy:.3f}")
print(f"micro-AUROC     {report.micro_auroc:.3f}")
print(f"AURC            {report.aurc:.3f}")

ent = entropy_rows(probs[test])
correct = probs[test].argmax(axis=1) == graph.labels[test]
print(f"mean entropy: correct {ent[correct].mean():.3f}  "
      f"incorrect {ent[~correct].mean():.3f}" if (~correct).any()
      else f"mean entropy (all correct): {ent.mean():.3f}")

# the MC spread itself carries signal: per-node disagreement across samples
spread = samples.std(axis=0).mean(axis=1)[test]
print(f"MC std, most / least certain node: {spread.min():.4f} / {spread.max():.4f}")
