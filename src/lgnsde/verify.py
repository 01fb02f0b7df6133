"""Verification harness: variance bound, perturbation bound, the certified
drift Lipschitz constant, residual-network equivalence, finite-difference
gradient checking.

The lemma checks verify the model as trained: its drift, integrated by
``sde.integrate`` with its scheme. Each check stacks its Monte-Carlo paths
into one node-major (n*B, hidden) batch, row i*B + b being node i of path
b (the layout ``autodiff.spmm`` takes), integrates it once under
``no_grad``, and reduces a grid row when ``integrate`` shows it that step.
Every gate is an exact inequality, so a failure is a bug, not bad luck,
except the zero-drift control's, an exact chi^2 band at alpha = 1e-6
(``lemma1_check`` and ``lemma2_check`` say why each holds).
"""

import csv
import json
from dataclasses import replace

import numpy as np

from .autodiff import Tensor, backward, no_grad
from .sde import BrownianPath, integrate


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


def _grid(steps, grid_points):
    """The steps with a report row: grid_points spread evenly over 1..steps."""
    if grid_points < 1:
        raise ValueError("need at least one grid point")
    return set(np.linspace(1, steps, grid_points).round().astype(int).tolist())


# ---------------------------------------------------------------- lemma 1

def chi2_ppf(q, df):
    """Quantiles q of chi^2 with df degrees of freedom: 2 gammaincinv(df/2,
    q), the formula of ``scipy.stats.chi2.ppf``. scipy.special is imported
    here, so train and predict never load it."""
    from scipy.special import gammaincinv

    return 2 * gammaincinv(df / 2, q)


def lemma1_check(model, graph, mc=1_000, grid_points=8, seed=0,
                 zero_drift=False):
    """Variance-bound check: Var(y(t)) <= L_h^2 Var(H(t)) on an MC ensemble.

    The mc paths start at H(0), driven by the path
    ``BrownianPath(seed, steps, n*mc, hidden)``, which ``integrate`` draws
    one step at a time, so two (n*mc, hidden) noise buffers are live, not
    the whole path; var_h and var_y sum the per-coordinate sample variances
    across paths of the state and of the decoder output. L_h is the
    decoder's spectral norm by SVD. The output gate is exact for any path
    count: var_y is sum_i tr(W^T C_i W) over the per-node sample covariances
    C_i, each PSD, so var_y <= ||W||_2^2 sum_i tr(C_i) = L_h^2 var_h, and a
    row passes within a rounding tolerance of 1e-9.

    Each row also has ``diffusion_bound`` = g^2 t n h. With
    `zero_drift` the drift is 0 (the model's GCN is never built), so each
    coordinate of H(t) is N(h0, g^2 t), independent across paths and
    coordinates, and var_h (mc - 1) / (g^2 t) is exactly chi^2 with
    (mc - 1) n h degrees of freedom. ``diffusion_low`` and
    ``diffusion_high`` are its quantiles at alpha = 1e-6, split over the
    grid rows and both tails. ``pass`` needs every ``output_pass``, and
    for the control every ``diffusion_pass``; for a trained drift the
    diffusion row is informational.
    """
    if mc < 1000:
        raise ValueError("need at least 1e3 paths")
    cfg = model.sde_config
    grid = _grid(cfg.steps, grid_points)
    n, hidden = graph.n, model.hidden
    l_h = float(np.linalg.norm(model.W_dec.data, 2))
    alpha = 1e-6 / len(grid)
    band = chi2_ppf([alpha / 2, 1 - alpha / 2], (mc - 1) * n * hidden) / (mc - 1)
    rows = []

    def observe(j, h):
        """One grid row from the (n*mc, hidden) batch at step j."""
        if j not in grid:
            return
        t = j * cfg.dt
        var_h = float(h.reshape(n, mc, -1).var(axis=1, ddof=1).sum())
        var_y = float(model.decode(Tensor(h)).data.reshape(n, mc, -1).var(axis=1, ddof=1).sum())
        out_bound = l_h ** 2 * var_h
        spread = cfg.g ** 2 * t
        low, high = (float(q) for q in spread * band)
        rows.append({
            "t": float(t),
            "var_h": var_h,
            "var_y": var_y,
            "output_bound": out_bound,
            "output_pass": bool(var_y <= out_bound * (1.0 + 1e-9)),
            "diffusion_bound": spread * n * hidden,
            "diffusion_low": low,
            "diffusion_high": high,
            "diffusion_pass": low <= var_h <= high,
        })

    drift = (lambda h, t: h * 0.0) if zero_drift else model.posterior_drift_fn(graph)
    path = BrownianPath(seed, cfg.steps, n * mc, hidden, t1=cfg.t1)
    with no_grad():
        h0 = model.encode(graph).data
        integrate(Tensor(np.repeat(h0, mc, axis=0)), drift, None, cfg, path, observe)
    gates = ("output_pass", "diffusion_pass") if zero_drift else ("output_pass",)
    return {"L_h": l_h, "mc": mc, "zero_drift": zero_drift, "grid": rows,
            "pass": all(r[k] for r in rows for k in gates)}


# ---------------------------------------------------------------- lemma 2

def lemma2_check(model, graph, epsilon=1e-2, trials=50, grid_points=8, seed=0):
    """Coupled-path perturbation bound E||H - H~||_F <= eps * e^{L_f t}.

    Each trial moves H(0) by eps along a random unit direction. The base
    and perturbed paths of all trials are one batch, laid out as
    (n, 2, trials, hidden); a pair shares its trial's increments, so with a
    constant diffusion the noise cancels exactly (the lemma's L_g^2/2 term
    is 0). The generator that drew the directions then draws each
    (n*trials, hidden) step with ``BrownianPath.draw`` into one buffer, on
    the caller's thread while no step integrates: the same stream as one
    (steps, n, 1, trials, hidden) draw. Two exact statements are gated:

    - ``certificate_pass``: the realized L_f, the largest ratio
      ||F - F~|| / ||H - H~|| over the drift calls that advance the paths,
      is at most the certified L_f of ``estimate_lipschitz`` (up to 1e-9
      relative), as it is for any true Lipschitz constant.
    - each row's ``pass``: the measured mean gap is at most
      ``realized_bound`` = eps * e^{L_f_realized t} (up to 1e-6 relative).
      With r the largest ratio of a step's drift calls, an Euler-Maruyama
      step gives gap' <= gap (1 + r dt). SRK evaluates K2 at the stage
      state H + K1 dt + g dW, whose gap is at most gap (1 + r dt), so
      gap' <= gap + (dt/2)(r gap + r gap (1 + r dt))
            = gap (1 + r dt + r^2 dt^2 / 2).
      Both are at most gap e^{r dt}.

    Each row also reports ``bound`` = eps * e^{L_f t}, the lemma's own
    statement with the certified L_f. ``pass`` needs the certificate and
    every row.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    cfg = model.sde_config
    grid = _grid(cfg.steps, grid_points)
    n, hidden = graph.n, model.hidden
    drift = model.posterior_drift_fn(graph)
    rng = np.random.Generator(np.random.PCG64(seed))
    dirs = rng.standard_normal((n, trials, hidden))
    dirs /= np.linalg.norm(dirs, axis=(0, 2), keepdims=True)
    realized_lf = 0.0
    rows = []

    def gap(x):
        """Per-trial Frobenius norm of perturbed minus base in a batch."""
        pairs = x.reshape(n, 2, trials, -1)
        return np.linalg.norm(pairs[:, 1] - pairs[:, 0], axis=(0, 2))

    def coupled_drift(h, t):
        """The drift on the batch of coupled pairs; keeps the largest ratio."""
        nonlocal realized_lf
        f = drift(h, t)
        dev = gap(h.data)
        ok = dev > 0
        realized_lf = max(realized_lf, float(np.max(gap(f.data)[ok] / dev[ok], initial=0.0)))
        return f

    def observe(j, h):
        """The measured half of a grid row, from the pairs at step j."""
        if j in grid:
            rows.append({"t": float(j * cfg.dt), "measured": float(gap(h).mean())})

    path = BrownianPath(seed, cfg.steps, n * trials, hidden, t1=cfg.t1)
    dw = np.empty(path.shape)
    increments = (np.broadcast_to(path.draw(rng, dw).reshape(n, 1, trials, hidden),
                                  (n, 2, trials, hidden)).reshape(-1, hidden)
                  for _ in range(path.steps))
    with no_grad():
        h0 = model.encode(graph).data[:, None]
        start = np.stack([np.broadcast_to(h0, dirs.shape), h0 + epsilon * dirs], axis=1)
        integrate(Tensor(start.reshape(-1, hidden)), coupled_drift, None, cfg,
                  increments, observe)
    l_f = estimate_lipschitz(model)
    for r in rows:
        r["bound"] = float(epsilon * np.exp(l_f * r["t"]))
        r["realized_bound"] = float(epsilon * np.exp(realized_lf * r["t"]))
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
        h_em, _ = integrate(h, drift, None, cfg, path)
        for j, dw in enumerate(path):
            h = h + drift(h, j * cfg.dt) * cfg.dt + cfg.g * dw
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
