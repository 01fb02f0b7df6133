"""Brownian-path generation and latent-SDE integration with pathwise KL.

The solver is unrolled (discretize-then-optimize): every step is recorded
on the autodiff tape, so gradients of the accumulated KL and of any
function of the final state flow back into the drift parameters. Each
drift call is one ``autodiff.checkpoint`` node, recomputed in backward.
"""

import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
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
        if self.scheme not in ("em", "srk"):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @property
    def dt(self):
        return self.t1 / self.steps


class BrownianPath:
    """Seeded Wiener increments: `steps` (n, d) arrays of N(0, dt) draws.

    The path keeps its seed, not its draws. Iterating it draws the steps
    one at a time from a fresh ``PCG64(seed)``, each as
    ``standard_normal((n, d))`` then ``*= sqrt(dt)``. The sampler buffers
    nothing between calls, so step j is bitwise the j-th slice of one
    ``standard_normal((steps, n, d)) * sqrt(dt)`` draw, and every iteration
    yields the same steps. So ``integrate`` holds one step of noise at a
    time, and a training step never holds the whole path.
    """

    def __init__(self, seed, steps, n, d, t0=0.0, t1=1.0):
        self.seed = int(seed)
        self.steps = steps
        self.shape = (n, d)
        self.scale = np.sqrt((t1 - t0) / steps)

    def __iter__(self):
        rng = np.random.Generator(np.random.PCG64(self.seed))
        for _ in range(self.steps):
            dw = rng.standard_normal(self.shape)
            dw *= self.scale
            yield dw


@contextmanager
def drawn_ahead(rngs, shape, dt, buffers=2):
    """Iterate over one `shape` array of N(0, dt) draws per rng in `rngs`,
    each drawn while the caller works on the ones before it.

    One helper thread fills each array with ``standard_normal(out=...)``
    and ``*= sqrt(dt)``, bit-identical to ``standard_normal(shape) *
    sqrt(dt)``. The arrays take turns in a ring of `buffers` buffers: the
    first ``buffers - 1`` draws are queued on entry, and each request for
    the next array queues one more into the buffer the caller gave back,
    so at most ``buffers - 1`` draws are queued ahead of the array the
    caller holds. Array i is overwritten once array i+1 is requested: use
    each array before asking for the next. The caller's thread takes each
    rng from `rngs` and allocates the buffers, so no memory is freed into
    the helper's malloc arena. The helper calls numpy only: it touches no
    Tensor and calls nothing a tracer may wrap. numpy keeps
    ``np.errstate`` per thread context, so the helper runs under the
    caller's settings, copied on entry; an error raised there is raised by
    the iterator. When the ``with`` block ends, also in an exception, the
    queued draws are cancelled and the thread is joined.
    """
    scale = np.sqrt(dt)
    err = np.geterr()

    def fill(rng, out):
        with np.errstate(**err):
            rng.standard_normal(out=out)
            out *= scale
        return out

    helper = ThreadPoolExecutor(max_workers=1)
    try:
        rngs = iter(rngs)
        # all buffers in one block: a large one is mapped and unmapped
        # whole, so it leaves no hole in the heap (two blocks, or one per
        # draw, raised the peak RSS of some benchmark runs by 2-8%)
        ring = itertools.cycle(np.empty((buffers, *shape)))
        queued = deque()

        def submit():
            rng = next(rngs, None)
            if rng is not None:
                queued.append(helper.submit(fill, rng, next(ring)))

        def draws():
            submit()
            while queued:
                yield queued.popleft().result()
                submit()  # into the buffer the caller just gave back

        for _ in range(buffers - 1):
            submit()
        yield draws()
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

    `increments` is any iterable of exactly ``config.steps`` arrays shaped
    like the state, read one step at a time: a (steps, n, d) array, a
    ``BrownianPath``, or a stream such as ``drawn_ahead`` yields. Step j is
    done with its array before the next is requested, so a stream may reuse
    its buffers. Too few or too many steps, or a step of the wrong shape,
    is a ValueError.

    KL uses left-endpoint quadrature of 0.5 * ||(F_post - F_prior) / g||_F^2,
    on the same grid as the solver, and stays differentiable w.r.t. the
    posterior drift parameters. With no prior drift (prediction) the KL is
    not computed and is None.

    The solve starts at time 0, so step j starts at t = j dt. On the tape
    each drift call is one ``checkpoint`` node that keeps only its inputs;
    `rng` is the generator the drift draws dropout from, if any. A step's
    first call takes (H, F_prior(H, t)) and returns its KL term too, so
    backward recomputes F_post - F_prior rather than keeping it: an SRK
    step keeps two state-sized buffers (H and the second call's input),
    an EM step one, and an OU prior -theta H one more; a constant prior
    is a zero-stride view and keeps none. The prior is evaluated outside
    the checkpoint, so its part of H's gradient is summed in the order of
    the full unroll, and the gradients are bitwise those of the same ops
    all on the tape. With the tape off, each drift is a plain call.

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

    def drift(h, t):
        return ad.checkpoint(lambda x: posterior_drift(x, t), (h,), rng)

    def kl_term(f, prior):
        v = (f - prior) * (1.0 / g)
        return f, ad.tensor_sum(v * v) * (0.5 * dt)

    def drift_and_kl(h, t):
        return ad.checkpoint(lambda x, p: kl_term(posterior_drift(x, t), p),
                             (h, prior_drift(h, t)), rng)

    h = h0
    kl = None if prior_drift is None else ad.Tensor(0.0)
    steps = iter(increments)
    for j in range(config.steps):
        t = j * dt
        dw = next(steps, None)
        if dw is None:
            raise ValueError(f"increments hold {j} steps, the config wants {config.steps}")
        if dw.shape != shape:
            raise ValueError(f"increment {j} has shape {dw.shape}, the state has {shape}")
        try:
            if kl is None:
                f_post = drift(h, t)
            else:
                f_post, kl_j = drift_and_kl(h, t)
                kl = kl + kl_j
            if config.scheme == "em":
                h_next = em_step(h, f_post, g, dw, dt)
            else:
                h_next = srk_step(h, drift, g, dw, dt, t, k1=f_post)
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
