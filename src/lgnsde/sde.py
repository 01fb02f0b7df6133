"""Brownian-path generation and latent-SDE integration with pathwise KL.

The solver is unrolled (discretize-then-optimize): every step is recorded
on the autodiff tape, so gradients of the accumulated KL and of any
function of the final state flow back into the drift parameters.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, tensor_sum


class DivergedError(RuntimeError):
    """Raised when a state or a parameter is non-finite."""


@dataclass
class SDEConfig:
    t0: float = 0.0
    t1: float = 1.0
    steps: int = 16
    g: float = 1.0
    scheme: str = "srk"   # "em" or "srk"

    def __post_init__(self):
        if not np.isfinite([self.t0, self.t1, self.g]).all():
            raise ValueError(f"t0, t1 and g must be finite, got "
                             f"{self.t0}, {self.t1}, {self.g}")
        if self.t1 <= self.t0:
            raise ValueError("t1 must exceed t0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.g <= 0:
            raise ValueError("diffusion constant g must be > 0")
        if self.scheme not in ("em", "srk"):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @property
    def dt(self):
        return (self.t1 - self.t0) / self.steps


class BrownianPath:
    """Seeded Wiener increments: a (steps, n, d) array of N(0, dt) draws."""

    def __init__(self, seed, steps, n, d, t0=0.0, t1=1.0):
        rng = np.random.Generator(np.random.PCG64(int(seed)))
        self.increments = rng.standard_normal((steps, n, d)) * np.sqrt((t1 - t0) / steps)


def em_step(h, f, g, dw, dt):
    """Euler-Maruyama: H + F dt + g dW. Works on Tensors or ndarrays; on
    ndarray ensembles dW broadcasts over leading axes and F may be 0."""
    return h + f * dt + g * dw


def srk_step(h, drift_fn, g, dw, dt, t, k1=None):
    """Heun-type step for additive noise.

    K1 = F(H, t); K2 = F(H + K1 dt + g dW, t + dt);
    H' = H + (K1 + K2) dt / 2 + g dW. The noise term is exact for a
    constant diffusion, so only the drift is corrected to second order.
    """
    if k1 is None:
        k1 = drift_fn(h, t)
    k2 = drift_fn(h + k1 * dt + g * dw, t + dt)
    return h + (k1 + k2) * (dt / 2.0) + g * dw


def integrate(h0, posterior_drift, prior_drift, config, path):
    """Advance h0 with the posterior drift; return (H(t1), KL).

    KL uses left-endpoint quadrature of 0.5 * ||(F_post - F_prior) / g||_F^2,
    on the same grid as the solver, and stays differentiable w.r.t. the
    posterior drift parameters. With no prior drift (prediction) the KL is
    not computed and is None.
    """
    want = (config.steps,) + h0.data.shape
    if path.increments.shape != want:
        raise ValueError(f"path has shape {path.increments.shape}, the config "
                         f"and state want (steps, n, d) = {want}")
    dt = config.dt
    g = config.g
    h = h0
    kl = None if prior_drift is None else Tensor(0.0)
    for j in range(config.steps):
        t = config.t0 + j * dt
        dw = path.increments[j]
        f_post = posterior_drift(h, t)
        if kl is not None:
            v = (f_post - prior_drift(h, t)) * (1.0 / g)
            kl = kl + tensor_sum(v * v) * (0.5 * dt)
        if config.scheme == "em":
            h = em_step(h, f_post, g, dw, dt)
        else:
            h = srk_step(h, posterior_drift, g, dw, dt, t, k1=f_post)
        if not np.all(np.isfinite(h.data)):
            raise DivergedError(f"integration diverged at step {j}")
    return h, kl
