"""Variational training loop: Adam on the negative ELBO with early
stopping on validation accuracy."""

import sys
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Adam, backward
from .metrics import evaluate
from .sde import BrownianPath, DivergedError


@dataclass
class RunLog:
    epochs: list = field(default_factory=list)   # {epoch, train_loss, val_acc, val_nll}
    best_epoch: int = -1
    best_val_acc: float = -1.0
    diverged: bool = False
    checkpoint_path: str = None
    # the error that stopped a diverged run; a plain attribute, not a
    # field, so runlog.json keeps its keys
    divergence = None


def _val_metrics(model, graph, val_mc, seed):
    probs = model.predict(graph, mc_samples=val_mc, master_seed=seed)
    rows = np.nonzero(graph.val_mask)[0]
    pred = probs[rows].argmax(axis=1)
    acc = float((pred == graph.labels[rows]).mean())
    logp = np.log(np.clip(probs[rows, graph.labels[rows]], 1e-300, None))
    return acc, float(-logp.mean())


def check_settings(epochs, patience, lr, val_mc, kl_weight):
    """Raise ValueError naming the first of train_model's settings that is
    out of range."""
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if patience < 0:
        raise ValueError(f"patience must be >= 0, got {patience}")
    if not 0 <= lr < np.inf:
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    if val_mc < 1:
        raise ValueError(f"val_mc must be >= 1, got {val_mc}")
    if kl_weight is not None and not 0 <= kl_weight < np.inf:
        raise ValueError(f"kl_weight must be finite and >= 0, got {kl_weight}")


def train_model(model, graph, epochs=300, patience=50, lr=0.01, seed=0,
                val_mc=2, kl_weight=None, verbose=False):
    """Maximize the ELBO with Adam; keep the best-validation parameters.

    One fresh Brownian path per step realizes the trajectory expectation
    through SGD; early stopping scores all of `graph.val_mask`. Returns a
    RunLog; the model ends up holding the best-validation (or last-good, on
    divergence) parameters.
    """
    check_settings(epochs, patience, lr, val_mc, kl_weight)
    params = model.parameters()
    opt = Adam(params, lr=lr)
    path_seeds = np.random.SeedSequence([seed, 1]).generate_state(epochs)
    drop_seeds = np.random.SeedSequence([seed, 2]).generate_state(epochs)
    val_seed = int(np.random.SeedSequence([seed, 3]).generate_state(1)[0])
    cfg = model.sde_config
    log = RunLog()
    best = [p.data.copy() for p in params]
    stale = 0
    for epoch in range(epochs):
        rng = np.random.Generator(np.random.PCG64(int(drop_seeds[epoch])))
        path = BrownianPath(int(path_seeds[epoch]), cfg.steps, graph.n,
                            model.hidden, t1=cfg.t1)
        # an overflow or NaN raises where it is made, and no numpy warning
        # reaches stderr; Adam checks its moments before writing parameters.
        # The error text says whether validation or the training step made it
        phase = ""
        try:
            with np.errstate(all="raise", under="ignore"):
                loss = model.training_loss(graph, path, rng=rng, kl_weight=kl_weight)
                if not np.isfinite(loss.data):
                    raise DivergedError(f"non-finite loss in epoch {epoch}")
                opt.zero_grad()
                backward(loss)
                opt.step()
                phase = "validation predict: "
                val_acc, val_nll = _val_metrics(model, graph, val_mc, val_seed)
        except FloatingPointError as e:  # a DivergedError too
            log.diverged = True
            log.divergence = phase + str(e)
            break
        log.epochs.append({"epoch": epoch, "train_loss": float(loss.data),
                           "val_acc": val_acc, "val_nll": val_nll})
        if verbose and (epoch % 20 == 0 or epoch == epochs - 1):
            print(f"epoch {epoch:4d} loss {float(loss.data):12.4f} "
                  f"val_acc {val_acc:.4f}", file=sys.stderr)
        if val_acc > log.best_val_acc:
            log.best_val_acc = val_acc
            log.best_epoch = epoch
            best = [p.data.copy() for p in params]
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    for p, data in zip(params, best):
        p.data = data
    return log


def test_report(model, graph, mc_samples, master_seed=0):
    """EvalReport on the test mask with the model's MC predictive."""
    probs = model.predict(graph, mc_samples, master_seed=master_seed)
    return evaluate(probs, graph.labels, graph.test_mask), probs
