"""Brownian-path generation and latent-SDE integration with pathwise KL.

The solver is unrolled (discretize-then-optimize): every step is recorded
on the autodiff tape, so gradients of the accumulated KL and of any
function of the final state flow back into the drift parameters. Each
solver step is one ``autodiff.checkpoint`` node, recomputed in backward.
"""

import functools
import itertools
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, nullcontext
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


class DivergedError(FloatingPointError):
    """Raised when a state or a parameter is non-finite; a FloatingPointError,
    so one ``except`` catches it and a numpy overflow alike.

    One raised by ``integrate`` says where: the solver ``step`` j, its
    start time ``t`` = j dt, and ``max_abs_h``, the largest |H| of the
    state entering step j; or, when ``observe`` fails on the finite state
    step j produced, that state's time (j + 1) dt and largest |H|.
    ``predict`` adds its MC ``sample``. What does not apply is None.
    """

    step = t = max_abs_h = sample = None


@dataclass
class SDEConfig:
    t0 = 0.0  # not a field: every solve starts at 0 (perfbench reads it)
    t1: float = 1.0
    steps: int = 16
    g: float = 1.0
    scheme: str = "srk"   # "em" or "srk"

    def __post_init__(self):
        if not np.isfinite([self.t1, self.g]).all():
            raise ValueError(f"t1 and g must be finite, got {self.t1}, {self.g}")
        if self.t1 <= 0:
            raise ValueError("t1 must be > 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.steps > 2 ** 53:  # beyond it a float64 no longer holds every step index
            raise ValueError(f"steps must be <= 2**53, got {self.steps}")
        if self.g <= 0:
            raise ValueError("diffusion constant g must be > 0")
        if not np.isfinite(1.0 / float(self.g)):  # the KL scales by it, and inf raises no flag
            raise ValueError(f"diffusion constant g must have a finite reciprocal, got {self.g}")
        if self.scheme not in ("em", "srk"):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @property
    def dt(self):
        return self.t1 / self.steps


class BrownianPath:
    """Seeded Wiener increments: `steps` (n, d) arrays of N(0, dt) draws.

    The path keeps its seed, not its draws. ``draw`` is the one recipe
    that makes an increment: ``standard_normal((n, d))``, then ``*=
    sqrt(dt)``. Iterating the path draws its steps one at a time with it
    from a fresh ``PCG64(seed)``. The sampler buffers nothing between
    calls, so step j is bitwise the j-th slice of one
    ``standard_normal((steps, n, d)) * sqrt(dt)`` draw, and every iteration
    yields the same steps. ``integrate`` draws a path it is given itself.
    """

    def __init__(self, seed, steps, n, d, t0=0.0, t1=1.0):
        self.seed = int(seed)
        self.steps = steps
        self.shape = (n, d)
        self.scale = np.sqrt((t1 - t0) / steps)

    def draw(self, rng, out=None):
        """The next step of the path from `rng`, a generator that has drawn
        the steps before it, into `out` (an (n, d) array) if given."""
        dw = rng.standard_normal(self.shape, out=out)
        dw *= self.scale
        return dw

    def __iter__(self):
        rng = np.random.Generator(np.random.PCG64(self.seed))
        for _ in range(self.steps):
            yield self.draw(rng)


def _drawn_ahead(path):
    """Yield the steps of `path`, bitwise ``list(path)``, each drawn while
    the caller works on the one before it.

    The caller's thread draws step 0 when it asks for it (so it never
    waits for a new thread's first draw), and one helper thread each later
    step, all from one ``PCG64(path.seed)`` through ``path.draw``. The
    steps take turns in the two halves of one (2, n, d) block, allocated
    on the caller's thread so no memory is freed into the helper's malloc
    arena. Each request queues the next draw into the half the caller gave
    back, so at most one step is drawn ahead, and step j is overwritten
    once step j + 1 is requested. The helper touches no Tensor, and
    ``draw`` is the one lgnsde function it calls. numpy keeps
    ``np.errstate`` per thread context, so the helper runs under the
    caller's settings, copied at the first request; an error raised there
    is raised by the generator. Open it under ``contextlib.closing``: when
    the generator is exhausted or closed, also in an exception, the queued
    draw is cancelled and the thread is joined.
    """
    rng = np.random.Generator(np.random.PCG64(path.seed))
    err = np.geterr()

    def fill(out):
        with np.errstate(**err):
            return path.draw(rng, out)

    # both buffers in one block: a large one is mapped and unmapped whole,
    # so it leaves no hole in the heap (two blocks, or one per draw, raised
    # the peak RSS of some benchmark runs by 2-8%)
    pair = itertools.cycle(np.empty((2, *path.shape)))
    dw = path.draw(rng, next(pair))
    helper = ThreadPoolExecutor(max_workers=1)
    try:
        for _ in range(path.steps - 1):
            pending = helper.submit(fill, next(pair))
            yield dw
            dw = pending.result()
        yield dw
    finally:
        helper.shutdown(cancel_futures=True)


def em_step(h, f, g, dw, dt):
    """Euler-Maruyama: H + F dt + g dW, on Tensor states and drifts."""
    return h + f * dt + g * dw


def srk_step(h, drift_fn, g, dw, dt, t, k1=None):
    """Heun-type step for additive noise.

    K1 = F(H, t); K2 = F(H + K1 dt + g dW, t + dt);
    H' = H + (K1 + K2) dt / 2 + g dW. The noise term is exact for a
    constant diffusion, so only the drift is corrected to second order.
    """
    if k1 is None:
        k1 = drift_fn(h, t)
    noise = g * dw
    k2 = drift_fn(h + k1 * dt + noise, t + dt)
    return h + (k1 + k2) * (dt / 2.0) + noise


def _diverged(j, t, h, head, cause):
    """The DivergedError of step j about state `h` at time t."""
    max_abs_h = float(np.max(np.abs(h.data)))
    e = DivergedError(f"{head} (t = {t:g}, max |H| = {max_abs_h:.3g}){cause}")
    e.step, e.t, e.max_abs_h = j, t, max_abs_h
    return e


def integrate(h0, posterior_drift, prior_drift, config, increments, observe=None, rng=None):
    """Advance h0 with the posterior drift driven by the Wiener
    `increments`; return (H(t1), KL).

    `increments` is a ``BrownianPath`` of ``config.steps`` steps shaped
    like the state, or any iterable of exactly that many arrays, read one
    step at a time: a (steps, n, d) array or a stream. Step j is done
    with its array before the next is requested, so with the tape off a
    stream may reuse its buffers. Too few or too many steps, or a step of
    the wrong shape, is a ValueError. A path is checked before step 0: its
    steps, its shape and its scale, which must equal sqrt(config.dt), so a
    path on another time grid is a ValueError before the solve starts.

    A path given here is drawn here: with the tape off by the
    ``_drawn_ahead`` generator, each step after the first on a helper
    thread one step ahead of the solver; ``integrate`` closes the
    generator, which joins the helper, before it returns or raises. With
    the tape on, each step draws inside its checkpoint (see below).

    KL uses left-endpoint quadrature of 0.5 * ||(F_post - F_prior) / g||_F^2,
    on the same grid as the solver, and stays differentiable w.r.t. the
    posterior drift parameters. With no prior drift (prediction) the KL is
    not computed and is None.

    The solve starts at time 0, so step j starts at t = j dt. On the tape
    each solver step is one ``checkpoint`` node whose one array input is
    the state H_j: the step evaluates the prior, the scheme's drift calls,
    the KL term and the update, and returns (H_{j+1}, KL_j), so backward
    recomputes them all. A ``BrownianPath`` step draws its increment
    inside the node from a ``PCG64(seed)`` generator of its own, which the
    checkpoint puts back with `rng` (the generator the drift draws dropout
    from, if any), so backward draws the increment again. So an SRK or an
    EM step keeps one state-sized buffer, with a constant or an OU prior
    alike. Any other iterable's array is the node's second input and is
    kept until backward. H_j feeds no op after its node, so the gradients
    are bitwise those of the same ops all on the tape. With the tape off,
    each step is a plain call.

    A FloatingPointError in step j (raised under
    ``np.errstate(all="raise")``), or a non-finite state after it, is
    raised as a DivergedError that names j, t and the largest |H| of the
    state entering step j.
    With an `observe` callable, ``observe(j + 1, H.data)`` is called after
    each step j, so a caller can reduce the states on the grid without
    keeping them (the lemma checks of ``verify`` do). A FloatingPointError
    there is a DivergedError that says step j's state was finite and names
    its time and largest |H|.
    """
    shape = h0.data.shape
    dt = config.dt
    g = config.g
    path = increments if isinstance(increments, BrownianPath) else None
    if path and (path.steps, path.shape, path.scale) != (config.steps, shape, np.sqrt(dt)):
        raise ValueError(f"the path has {path.steps} steps of {path.shape} at scale {path.scale}, "
                         f"the config wants {config.steps} of {shape} at scale {np.sqrt(dt)}")
    rngs = rng
    if path is None:
        stream = nullcontext(iter(increments))
    elif ad._grad_enabled.get():
        noise = np.random.Generator(np.random.PCG64(path.seed))
        rngs = noise if rng is None else (rng, noise)
        # the path, checked above, stands in for each of its steps
        stream = nullcontext(itertools.repeat(path, path.steps))
    else:
        stream = closing(_drawn_ahead(path))

    def step(t, h, dw=None):
        """(H_{j+1}, KL_j) of the step from `h` at time t; H_{j+1} alone
        with no prior. Without `dw` the step draws from the path."""
        dw = path.draw(noise) if dw is None else dw.data
        prior = None if prior_drift is None else prior_drift(h, t)
        f = posterior_drift(h, t)
        if prior is not None:
            # the KL ops come before the update's: f's gradient is summed
            # over its consumers in their order, and trained bits depend on it
            v = (f - prior) * (1.0 / g)
            kl_j = ad.tensor_sum(v * v) * (0.5 * dt)
        if config.scheme == "em":
            h_next = em_step(h, f, g, dw, dt)
        else:
            h_next = srk_step(h, posterior_drift, g, dw, dt, t, k1=f)
        return h_next if prior is None else (h_next, kl_j)

    h = h0
    kl = None if prior_drift is None else ad.Tensor(0.0)
    with stream as steps:
        for j in range(config.steps):
            t = j * dt
            dw = next(steps, None)
            if dw is None:
                raise ValueError(f"increments hold {j} steps, the config wants {config.steps}")
            if dw.shape != shape:
                raise ValueError(f"increment {j} has shape {dw.shape}, the state has {shape}")
            inputs = (h,) if dw is path else (h, ad.Tensor(dw))
            try:
                h_next = ad.checkpoint(functools.partial(step, t), inputs, rngs)
                if kl is not None:
                    h_next, kl_j = h_next
                    kl = kl + kl_j
            except FloatingPointError as e:
                raise _diverged(j, t, h, f"integration diverged at step {j}", f": {e}") from e
            if not np.all(np.isfinite(h_next.data)):
                raise _diverged(j, t, h, f"integration diverged at step {j}", "")
            h = h_next
            if observe is not None:
                try:
                    observe(j + 1, h.data)
                except FloatingPointError as e:
                    raise _diverged(j, (j + 1) * dt, h,
                                    f"step {j} ended with a finite state",
                                    f", but reducing that state failed: {e}") from e
        if next(steps, None) is not None:
            raise ValueError(f"increments hold more than {config.steps} steps, "
                             f"the config wants {config.steps}")
    return h, kl
