"""Verification harness: variance bound, perturbation bound, the certified
drift Lipschitz constant, residual-network equivalence, finite-difference
gradient checking.

Each lemma gate is an exact inequality, so a failure is a bug, not bad
luck (``lemma1_check`` and ``lemma2_check`` say why each holds). Only the
diffusion row of lemma 1 is a statistic.

Monte-Carlo runs here keep their states as ndarrays of shape (..., n, d)
and evaluate the model's one drift closure on many of them at once:
``_batched_drift`` hands a stack to it as a single node-major Tensor
under ``no_grad``. Both lemma checks advance their ensembles with one
Euler-Maruyama loop, ``_simulate``, which takes the drift as an argument
and shows the ensemble to an observer after every step. It advances the
paths in blocks of about 1 MiB, in place, so a 10k-path check holds one
ensemble, its noise and one block of temporaries, not one ensemble per
grid step. Both lemmas reduce a grid row when its step is observed, and
lemma 2 reads its realized Lipschitz ratios off the loop's own drift
calls. The zero-drift control of lemma 1 passes a drift of 0 and never
evaluates (or touches) the model's GCN.
"""

import csv
import itertools
import json
from dataclasses import replace

import numpy as np

from .autodiff import Tensor, backward, no_grad
from .sde import DivergedError, drawn_ahead, em_step, integrate


def _eval_h0(model, graph):
    with no_grad():
        return model.encode(graph).data


def _batched_drift(model, graph):
    """The model's posterior drift on ndarray states of shape (..., n, d).

    The B states (B the product of the leading axes) go to the drift as
    one (n*B, d) Tensor, node-major as ``autodiff.spmm`` expects, and come
    back as a view with the input's leading axes.
    """
    drift = model.posterior_drift_fn(graph)

    def batched(h, t):
        n, d = h.shape[-2:]
        with no_grad():
            out = drift(Tensor(np.swapaxes(h.reshape(-1, n, d), 0, 1)
                               .reshape(-1, d)), t).data
        return np.swapaxes(out.reshape(n, -1, out.shape[-1]), 0, 1).reshape(
            h.shape[:-1] + (-1,))

    return batched


def estimate_lipschitz(model):
    """Certified Lipschitz constant L_f of the posterior drift in H, a float:
    ||W1[:hidden]||_2 * ||W2||_2.

    With dropout off the drift is F(H, t) = A tanh(A [H, t] W1 + b1) W2 + b2.
    The propagation operator A = D^{-1/2}(A+I)D^{-1/2} has ||A||_2 = 1, tanh
    is 1-Lipschitz and the time column does not depend on H, so
    ||F(H, t) - F(H~, t)||_F <= L_f ||H - H~||_F for every pair of states
    and every t. Both spectral norms come from LAPACK's SVD.
    """
    w1 = model.W1.data[:model.hidden]
    return float(np.linalg.norm(w1, 2) * np.linalg.norm(model.W2.data, 2))


# ---------------------------------------------------------------- lemma 1

# _simulate advances paths in blocks of at least this many state values
# (1 MiB of float64); its docstring says why the results stay bitwise equal.
_BLOCK_VALUES = 2 ** 17


def _simulate(drift, h, cfg, rng, observe):
    """Euler-Maruyama on an ndarray ensemble h of shape (..., paths, n, d).

    Calls ``observe(j, states)`` with `h` at step 0 and with the ensemble
    after each step j. A state is valid only during its call: the next step
    is written over it, so an observer that keeps one keeps a copy.

    Each step draws one (paths, n, d) noise array from `rng`, shared
    across any leading axes so stacked copies of an ensemble stay coupled;
    the next step's array is drawn on a helper thread meanwhile. The drift
    and the update then run one block of paths at a time. A block takes
    ``_BLOCK_VALUES // values-per-path`` paths and the last also takes the
    remainder, so each holds at least ``_BLOCK_VALUES`` values or is the
    whole ensemble. That gives the same bits as one block: the drift's
    sparse product treats every column on its own, tanh and the adds act
    element by element, and a dgemm gives the same bits for a subset of its
    rows while both calls stay above M*N*K = 1e6, below which OpenBLAS's
    small-matrix kernel rounds differently once K >= 16. With 2^17 values a
    block, every product with K >= 8 stays above that size.

    A FloatingPointError in step j is raised as a DivergedError naming j.
    """
    observe(0, h)
    paths = h.shape[-3]
    per_block = max(1, _BLOCK_VALUES * paths // h.size)
    edges = [k * per_block for k in range(max(1, paths // per_block))] + [paths]
    blocks = [np.s_[..., a:b, :, :] for a, b in zip(edges, edges[1:])]
    state = np.empty(h.shape)
    with drawn_ahead(itertools.repeat(rng, cfg.steps), h.shape[-3:], cfg.dt) as noise:
        for j, dw in enumerate(noise):
            t = cfg.t0 + j * cfg.dt
            try:
                for blk in blocks:
                    state[blk] = em_step(h[blk], drift(h[blk], t), cfg.g, dw[blk], cfg.dt)
            except FloatingPointError as e:
                raise DivergedError(f"integration diverged at step {j}: {e}") from e
            h = state
            observe(j + 1, h)


def _grid(steps, grid_points):
    """The steps with a report row: grid_points spread evenly over 1..steps."""
    if grid_points < 1:
        raise ValueError("need at least one grid point")
    return set(np.linspace(1, steps, grid_points).round().astype(int).tolist())


def _sum_variance(states_3d):
    """Sum of per-coordinate variances across the path axis (trace form)."""
    return float(states_3d.var(axis=0, ddof=1).sum())


def lemma1_check(model, graph, mc=10_000, grid_points=8, seed=0,
                 zero_drift=False):
    """Variance-bound check: Var(y(t)) <= L_h^2 Var(H(t)) on an MC ensemble.

    L_h is the decoder's spectral norm by SVD. The output gate is exact for
    any path count: var_y is sum_i tr(W^T C_i W) over the per-node sample
    covariances C_i, each PSD, so var_y <= ||W||_2^2 sum_i tr(C_i) =
    L_h^2 var_h, and a row passes within a rounding tolerance of 1e-9.
    Each row also has the bounded-diffusion growth bound g^2 t n h, with a
    3/sqrt(mc) sampling slack, which is an equality in distribution for
    zero drift and informational for a trained drift. With `zero_drift`
    the paths are pure diffusion from H(t0): the drift is 0 and the
    model's GCN is never evaluated.
    """
    if mc < 1000:
        raise ValueError("need at least 1e3 paths")
    cfg = model.sde_config
    grid = _grid(cfg.steps, grid_points)
    drift = (lambda h, t: 0.0) if zero_drift else _batched_drift(model, graph)
    h0 = _eval_h0(model, graph)
    l_h = float(np.linalg.norm(model.W_dec.data, 2))
    slack = 3.0 / np.sqrt(mc)
    w, b = model.W_dec.data, model.b_dec.data
    rows = []

    def observe(j, h):
        """One grid row from the ensemble at step j."""
        if j not in grid:
            return
        t = cfg.t0 + j * cfg.dt
        var_h = _sum_variance(h)
        var_y = _sum_variance(h @ w + b)
        out_bound = l_h ** 2 * var_h
        diff_bound = cfg.g ** 2 * (t - cfg.t0) * graph.n * model.hidden
        rows.append({
            "t": float(t),
            "var_h": var_h,
            "var_y": var_y,
            "output_bound": out_bound,
            "output_pass": bool(var_y <= out_bound * (1.0 + 1e-9)),
            "diffusion_bound": diff_bound * (1.0 + slack),
            "diffusion_pass": bool(var_h <= diff_bound * (1.0 + slack)),
        })

    _simulate(drift, np.broadcast_to(h0, (mc,) + h0.shape), cfg,
              np.random.Generator(np.random.PCG64(seed)), observe)
    return {"L_h": l_h, "mc": mc, "slack": slack, "zero_drift": zero_drift,
            "grid": rows, "pass": all(r["output_pass"] for r in rows)}


# ---------------------------------------------------------------- lemma 2

def lemma2_check(model, graph, epsilon=1e-2, trials=50, grid_points=8, seed=0):
    """Coupled-path perturbation bound E||H - H~||_F <= eps * e^{L_f t}.

    Both runs share each trial's Brownian increments, so with a constant
    diffusion the noise cancels exactly (the lemma's L_g^2/2 term is 0) and
    the deviation is drift-driven. Two exact statements are gated:

    - ``certificate_pass``: the realized L_f, the largest ratio
      ||F - F~|| / ||H - H~|| over the drift calls that advance the paths,
      is at most the certified L_f of ``estimate_lipschitz`` (up to 1e-9
      relative). A ratio above a true Lipschitz constant is impossible.
    - each row's ``pass``: the measured mean gap is at most
      ``realized_bound`` = eps * e^{L_f_realized t} (up to 1e-6 relative).
      Each Euler-Maruyama step gives gap' <= gap (1 + r dt) <= gap e^{r dt}
      for its realized ratio r, so a failure is a coupling or solver bug.

    Each row also reports ``bound`` = eps * e^{L_f t}, the lemma's own
    statement with the certified L_f. ``pass`` needs the certificate and
    every row.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    cfg = model.sde_config
    grid = _grid(cfg.steps, grid_points)
    drift = _batched_drift(model, graph)
    h0 = _eval_h0(model, graph)
    rng = np.random.Generator(np.random.PCG64(seed))
    dirs = np.stack([d / np.linalg.norm(d)
                     for d in rng.standard_normal((trials,) + h0.shape)])
    realized_lf = 0.0
    rows = []

    def gap(pair):
        """Per-trial Frobenius norm of perturbed minus base."""
        return np.linalg.norm((pair[1] - pair[0]).reshape(pair.shape[1], -1), axis=1)

    def coupled_drift(h, t):
        """The drift on a block of coupled pairs; keeps the largest ratio."""
        nonlocal realized_lf
        f, dev = drift(h, t), gap(h)
        ok = dev > 0
        realized_lf = max(realized_lf, float(np.max(gap(f)[ok] / dev[ok], initial=0.0)))
        return f

    def observe(j, h):
        """The measured half of a grid row, from the pairs at step j."""
        if j in grid:
            rows.append({"t": float(cfg.t0 + j * cfg.dt), "measured": float(gap(h).mean())})

    # one (2, trials, n, d) ensemble: base and perturbed paths, same noise
    _simulate(coupled_drift, np.stack([np.broadcast_to(h0, dirs.shape), h0 + epsilon * dirs]),
              cfg, rng, observe)
    l_f = estimate_lipschitz(model)
    for r in rows:
        elapsed = r["t"] - cfg.t0
        r["bound"] = float(epsilon * np.exp(l_f * elapsed))
        r["realized_bound"] = float(epsilon * np.exp(realized_lf * elapsed))
        r["pass"] = r["measured"] <= r["realized_bound"] * (1.0 + 1e-6)
    certified = realized_lf <= l_f * (1.0 + 1e-9)
    return {"epsilon": epsilon, "trials": trials, "L_f_realized": realized_lf,
            "L_f": l_f, "certificate_pass": certified, "grid": rows,
            "pass": certified and all(r["pass"] for r in rows)}


# ---------------------------------------------------- ResNet equivalence

def resnet_equivalence(model, graph, path):
    """Compare the model's unrolled EM solve against an explicit residual
    network, whatever scheme the model was trained with.

    Layer j computes H + F(H, t_j) dt + g dW_j with shared drift weights;
    the two computations should agree to floating-point identity.
    """
    cfg = replace(model.sde_config, scheme="em")
    drift = model.posterior_drift_fn(graph)
    with no_grad():
        h = model.encode(graph)
        h_em, _ = integrate(h, drift, None, cfg, path.increments)
        for j in range(cfg.steps):
            h = h + drift(h, cfg.t0 + j * cfg.dt) * cfg.dt + cfg.g * path.increments[j]
    return float(np.abs(h.data - h_em.data).max())


# ------------------------------------------------------- gradient checks

def elbo_gradient_check(model, graph, path):
    """Max relative error of analytic ELBO gradients vs central differences
    with step 1e-5.

    The Brownian path is frozen, dropout is off, so the ELBO is a smooth
    deterministic function of the parameters. Relative error uses
    |a - f| / max(|a|, |f|, 1e-4) so near-zero gradients are judged on an
    absolute scale.
    """
    fd_eps = 1e-5
    params = model.parameters()
    for p in params:
        p.grad = None
    loss = model.elbo(graph, path)
    backward(loss)
    analytic = [p.grad.copy() for p in params]

    def eval_elbo():
        with no_grad():
            return float(model.elbo(graph, path).data)

    worst = {}
    for p, name, ga in zip(params, model._param_names, analytic):
        flat = p.data.reshape(-1)
        gfd = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + fd_eps
            up = eval_elbo()
            flat[i] = orig - fd_eps
            dn = eval_elbo()
            flat[i] = orig
            gfd[i] = (up - dn) / (2.0 * fd_eps)
        gfd = gfd.reshape(p.data.shape)
        rel = np.abs(ga - gfd) / np.maximum(np.maximum(np.abs(ga), np.abs(gfd)), 1e-4)
        worst[name] = float(rel.max())
    worst["max"] = max(worst.values())
    for p in params:
        p.grad = None
    return worst


# --------------------------------------------------------------- reports

def write_report(report, json_path, csv_path):
    """Verification report as JSON, with a CSV twin of the grid rows."""
    with open(json_path, "w") as f:
        json.dump(report, f, sort_keys=True, indent=2)
        f.write("\n")
    rows = report["grid"]
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        cols = sorted(rows[0].keys())
        w.writerow(cols)
        for r in rows:
            w.writerow([repr(float(r[c])) if isinstance(r[c], float) else r[c] for c in cols])
