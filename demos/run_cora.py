"""Run the reference configuration on the Cora citation network.

Needs the raw files cora.content and cora.cites — this repo does not
download anything. Point CORA_DIR at a directory containing them, or place
them under data/cora/, then:  python3 demos/run_cora.py
"""

import os
import sys

import numpy as np

from lgnsde import (LGNSDEModel, SplitSpec, entropy_rows, evaluate,
                    load_cora_raw, make_splits, train_model)

base = os.environ.get("CORA_DIR", os.path.join("data", "cora"))
content = os.path.join(base, "cora.content")
cites = os.path.join(base, "cora.cites")
if not (os.path.exists(content) and os.path.exists(cites)):
    sys.exit(f"Cora files not found under {base!r}; set CORA_DIR")

seed = 0
graph = load_cora_raw(content, cites)
graph = make_splits(graph, SplitSpec(seed=seed, train_per_class=20,
                                     val_count=500, test_count=1000))
print(f"{graph.n} nodes, {len(graph.edges)} edges, "
      f"{graph.num_classes} classes, {graph.d_in} features")

model = LGNSDEModel(graph.d_in, graph.num_classes, hidden=64, steps=16,
                    g=1.0, scheme="srk", dropout=0.2, seed=seed)
log = train_model(model, graph, epochs=300, patience=50, lr=0.01,
                  seed=seed, val_mc=2, verbose=True)
print(f"best val acc {log.best_val_acc:.4f} at epoch {log.best_epoch}")

probs = model.predict(graph, mc_samples=20, master_seed=seed)
report = evaluate(probs, graph.labels, graph.test_mask)
print(f"test accuracy {report.accuracy:.4f}  "
      f"micro-AUROC {report.micro_auroc:.4f}  AURC {report.aurc:.4f}")

test = np.asarray(graph.test_mask, dtype=bool)
ent = entropy_rows(probs[test])
correct = probs[test].argmax(axis=1) == graph.labels[test]
print(f"entropy correct {ent[correct].mean():.3f} / "
      f"incorrect {ent[~correct].mean():.3f} "
      f"({ent[~correct].mean() / ent[correct].mean():.2f}x)")
