"""Walkthrough: empirical checks of the model's theoretical guarantees.

Three claims, each checked numerically on a small graph:
  1. output variance is bounded by L_h^2 times latent variance; with the
     drift zeroed, the latent variance lies in its exact chi^2 band,
  2. a perturbed initial state stays within eps * exp(L_f t) (the diffusion
     is constant, so the lemma's L_g^2/2 term is 0), with L_f certified from
     the drift's weight norms,
  3. the Euler-Maruyama unrolled solve is exactly a residual network.

Run from the repo root:  python3 demos/verify_bounds.py
"""

from lgnsde import (BrownianPath, LGNSDEModel, SplitSpec, estimate_lipschitz,
                    lemma1_check, lemma2_check, make_splits,
                    resnet_equivalence, sbm_generate)

seed = 0
graph = sbm_generate(3, 4, 0.4, 0.05, 4, 2.0, seed=seed)
graph = make_splits(graph, SplitSpec(seed=seed, train_frac=0.34, val_frac=0.33))
model = LGNSDEModel(graph.d_in, graph.num_classes, hidden=3, steps=16,
                    dropout=0.0, seed=seed)

print("== drift Lipschitz constant ==")
print(f"L_f {estimate_lipschitz(model):.3f} (drift, certified)")

print("\n== variance bound Var(y) <= L_h^2 Var(H) ==")
out = lemma1_check(model, graph, seed=seed)
print(f"L_h {out['L_h']:.3f} (decoder spectral norm)")
for row in out["grid"][::2]:
    print(f"t={row['t']:.3f}  var_y {row['var_y']:8.3f}  "
          f"bound {row['output_bound']:8.3f}  pass={row['output_pass']}")
print("overall:", "PASS" if out["pass"] else "FAIL")

print("\n== with the drift zeroed, Var(H(t)) is g^2 t n h times chi^2/dof ==")
outz = lemma1_check(model, graph, seed=seed + 1, zero_drift=True)
for row in outz["grid"][::2]:
    print(f"t={row['t']:.3f}  var_h {row['var_h']:7.3f}  "
          f"band [{row['diffusion_low']:7.3f}, {row['diffusion_high']:7.3f}]  "
          f"g^2 t n h {row['diffusion_bound']:7.3f}  pass={row['diffusion_pass']}")
print("overall:", "PASS" if outz["pass"] else "FAIL")

print("\n== perturbation bound on coupled paths ==")
out2 = lemma2_check(model, graph, epsilon=1e-2, trials=50, grid_points=8,
                    seed=seed)
print(f"realized L_f {out2['L_f_realized']:.3f} <= certified "
      f"{out2['L_f']:.3f}: {out2['certificate_pass']}")
for row in out2["grid"][::2]:
    print(f"t={row['t']:.3f}  measured {row['measured']:.5f}  "
          f"realized bound {row['realized_bound']:.5f}  "
          f"bound {row['bound']:.5f}")
print("overall:", "PASS" if out2["pass"] else "FAIL")

print("\n== EM solve == explicit residual network ==")
cfg = model.sde_config
path = BrownianPath(seed, cfg.steps, graph.n, model.hidden, t1=cfg.t1)
dev = resnet_equivalence(model, graph, path)
print(f"max abs deviation over {cfg.steps} layers: {dev:.2e}")
