"""Walkthrough: out-of-distribution detection by leaving one community out.

The model never sees class 2 during training; at test time its predictive
entropy on those nodes should be visibly higher than on the classes it knows.

Run from the repo root:  python3 demos/ood_demo.py
"""

import numpy as np

from lgnsde import (LGNSDEModel, SplitSpec, entropy_rows, make_splits,
                    ood_evaluate, ood_view, sbm_generate, train_model)

seed = 0
graph = sbm_generate(3, 40, 0.2, 0.02, 8, 3.0, seed=seed)
graph = make_splits(graph, SplitSpec(seed=seed, train_frac=0.3, val_frac=0.3,
                                     ood_class=2))
view, is_ood = ood_view(graph, 2)
print(f"training on {view.num_classes} classes, "
      f"{int(is_ood.sum())} nodes held out as OOD")

model = LGNSDEModel(view.d_in, view.num_classes, hidden=16, steps=8, seed=seed)
train_model(model, view, epochs=60, patience=60, lr=0.01, seed=seed,
            val_mc=1)

probs = model.predict(view, mc_samples=10, master_seed=seed)
test = np.asarray(view.test_mask, dtype=bool)
block = ood_evaluate(probs[test], is_ood[test], labels=view.labels[test])
print(f"entropy: in-dist {block['mean_entropy_in']:.3f}  "
      f"OOD {block['mean_entropy_ood']:.3f}  "
      f"(ratio {block['mean_entropy_ood'] / block['mean_entropy_in']:.2f}x)")
print(f"OOD AUROC (entropy as score): {block['auroc_ood']:.3f}")
print(f"OOD-aware AURC: {block['aurc_ood']:.3f}")

# quick text histogram of the two entropy populations
ent = entropy_rows(probs[test])
edges = np.linspace(0, max(ent.max(), 1e-9), 11)
for i in range(10):
    in_n = int(((ent >= edges[i]) & (ent < edges[i + 1]) & ~is_ood[test]).sum())
    ood_n = int(((ent >= edges[i]) & (ent < edges[i + 1]) & is_ood[test]).sum())
    print(f"[{edges[i]:.2f},{edges[i + 1]:.2f})  in {'#' * in_n:<40} ood {'#' * ood_n}")
