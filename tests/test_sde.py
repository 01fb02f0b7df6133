import itertools
import threading
from dataclasses import fields

import numpy as np
import pytest

import lgnsde.autodiff as ad
from lgnsde.autodiff import Tensor, backward
from lgnsde.sde import (BrownianPath, DivergedError, SDEConfig, drawn_ahead,
                        em_step, integrate, srk_step)


def const_drift(value):
    return lambda h, t: np.full(h.shape, value) if not isinstance(h, Tensor) \
        else Tensor(np.full(h.data.shape, value))


class TestBrownianPath:
    def test_deterministic(self):
        a = BrownianPath(5, 4, 3, 2)
        b = BrownianPath(5, 4, 3, 2)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("seed, steps, n, d, t1", [(0, 1, 1, 1, 1.0),
                                                       (7, 16, 9, 8, 1.0),
                                                       (2 ** 31 - 1, 5, 4, 3, 2.5)])
    def test_one_draw_equals_per_step_draws(self, seed, steps, n, d, t1):
        # the (steps, n, d) draw must keep every seeded report unchanged
        rng = np.random.Generator(np.random.PCG64(seed))
        per_step = [rng.standard_normal((n, d)) * np.sqrt(t1 / steps)
                    for _ in range(steps)]
        assert np.array_equal(np.stack(list(BrownianPath(seed, steps, n, d, 0.0, t1))),
                              np.stack(per_step))

    @pytest.mark.parametrize("seed, steps, n, d", [(0, 1, 1, 1), (7, 16, 9, 8),
                                                   (3, 16, 2708, 64)])
    def test_iteration_equals_one_shot_draw(self, seed, steps, n, d):
        # the steps are drawn one at a time, bitwise the one-shot draw (the
        # last case is the Cora stand-in's path), and a path iterates twice
        rng = np.random.Generator(np.random.PCG64(seed))
        one_shot = rng.standard_normal((steps, n, d)) * np.sqrt(1.0 / steps)
        path = BrownianPath(seed, steps, n, d)
        for _ in range(2):
            drawn = list(path)
            assert len(drawn) == steps
            assert all(np.array_equal(a, b) for a, b in zip(drawn, one_shot))

    def test_increment_variance(self):
        # pooled per-entry variance over many paths approaches dt
        L, n, d = 4, 5, 3
        samples = np.concatenate([np.concatenate(
            [w.reshape(-1) for w in BrownianPath(s, L, n, d)])
            for s in range(200)])
        dt = 1.0 / L
        se = dt * np.sqrt(2.0 / samples.size)
        assert abs(samples.var() - dt) < 3 * se


class TestDrawnAhead:
    SEEDS, STEPS, SHAPE, DT = (3, 8, 21), 4, (5, 2), 0.3

    def rngs(self):
        """One generator per seed, each repeated for its STEPS draws."""
        gens = [np.random.Generator(np.random.PCG64(s)) for s in self.SEEDS]
        return gens, itertools.chain.from_iterable(
            itertools.repeat(g, self.STEPS) for g in gens)

    # 1 and STEPS are predict's ring at steps = 1 and 4; 13 > 12 rngs
    @pytest.mark.parametrize("buffers", [1, 2, 3, STEPS, 13])
    def test_stream_equals_sequential_draws(self, buffers):
        gens, rngs = self.rngs()
        with drawn_ahead(rngs, self.SHAPE, self.DT, buffers=buffers) as stream:
            drawn = [dw.copy() for dw in stream]
        refs = [np.random.Generator(np.random.PCG64(s)) for s in self.SEEDS]
        want = [r.standard_normal(self.SHAPE) * np.sqrt(self.DT)
                for r in refs for _ in range(self.STEPS)]
        assert len(drawn) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(drawn, want))
        assert [g.bit_generator.state for g in gens] == [r.bit_generator.state for r in refs]

    @pytest.mark.parametrize("buffers", [1, 2, 3, STEPS, 13])
    def test_rngs_are_taken_at_most_buffers_minus_one_ahead(self, buffers):
        _, rngs = self.rngs()
        taken = []

        def counted():
            for rng in rngs:
                taken.append(threading.current_thread())
                yield rng

        total = len(self.SEEDS) * self.STEPS
        with drawn_ahead(counted(), self.SHAPE, self.DT, buffers=buffers) as stream:
            assert len(taken) == min(buffers - 1, total)
            for received, _ in enumerate(stream, 1):
                assert len(taken) == min(received + buffers - 1, total)
        # the caller's thread takes every rng
        assert set(taken) == {threading.current_thread()}

    @pytest.mark.parametrize("buffers", [2, STEPS])
    def test_no_thread_outlives_a_raising_consumer(self, buffers):
        _, rngs = self.rngs()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="consumer failed"):
            with drawn_ahead(rngs, self.SHAPE, self.DT, buffers=buffers) as stream:
                for received, _ in enumerate(stream, 1):
                    if received == 2:
                        raise RuntimeError("consumer failed")
        assert threading.active_count() == before


class TestEMStep:
    def test_direct_substitution(self):
        # 1 + 2*0.1 + 0.5*0.3 = 1.35
        out = em_step(np.array(1.0), np.array(2.0), 0.5, np.array(0.3), 0.1)
        assert out == pytest.approx(1.35, abs=1e-15)

    def test_no_drift_no_noise(self):
        h = np.array([2.0, -1.0])
        assert np.array_equal(em_step(h, np.zeros(2), 0.0, np.ones(2), 0.1), h)

    def test_telescoping_with_zero_drift(self):
        path = BrownianPath(3, 10, 4, 2)
        h = np.zeros((4, 2))
        for dw in path:
            h = em_step(h, np.zeros((4, 2)), 0.7, dw, 0.1)
        assert np.abs(h - 0.7 * sum(path)).max() < 1e-14


class TestSRKStep:
    def test_constant_drift_equals_em(self):
        h = np.array([[1.0, 2.0]])
        dw = np.array([[0.3, -0.2]])
        em = em_step(h, np.full((1, 2), 1.5), 0.5, dw, 0.25)
        srk = srk_step(h, const_drift(1.5), 0.5, dw, 0.25, 0.0)
        assert np.abs(em - srk).max() < 1e-15

    def test_linear_drift_third_order_local_error(self):
        # g=0, F = -H: one step should match exp(-dt) H to O(dt^3)
        errs = []
        for dt in (0.1, 0.05):
            h = np.array(1.0)
            out = srk_step(h, lambda x, t: -x, 0.0, np.array(0.0), dt, 0.0)
            errs.append(abs(float(out) - np.exp(-dt)))
        assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.25)

    def test_ou_variance_and_beats_em(self):
        # dH = -H dt + dW: Var(H(1)) = (1 - e^-2)/2
        theta, g, L, n_paths = 1.0, 1.0, 20, 10_000
        drift = lambda h, t: -theta * h
        analytic_var = g * g * (1 - np.exp(-2 * theta)) / (2 * theta)

        def run(scheme, L, seed):
            rng = np.random.Generator(np.random.PCG64(seed))
            dt = 1.0 / L
            h = np.ones(n_paths)
            for j in range(L):
                dw = rng.standard_normal(n_paths) * np.sqrt(dt)
                if scheme == "em":
                    h = em_step(h, drift(h, 0), g, dw, dt)
                else:
                    h = srk_step(h, drift, g, dw, dt, j * dt)
            return h

        h = run("srk", 100, 0)
        se = analytic_var * np.sqrt(2.0 / (n_paths - 1))
        assert abs(h.var(ddof=1) - analytic_var) < 3 * se
        m_true = np.exp(-1.0)
        em_err = abs(run("em", 20, 1).mean() - m_true) + \
            abs(run("em", 20, 1).var(ddof=1) - analytic_var)
        srk_err = abs(run("srk", 20, 1).mean() - m_true) + \
            abs(run("srk", 20, 1).var(ddof=1) - analytic_var)
        assert srk_err <= em_err

    def test_em_weak_convergence_halves(self):
        # mean error on the OU problem roughly halves when L doubles
        theta, n_paths = 1.0, 400_000
        errs = []
        for L in (10, 20):
            rng = np.random.Generator(np.random.PCG64(2))
            dt = 1.0 / L
            h = np.ones(n_paths)
            for j in range(L):
                dw = rng.standard_normal(n_paths) * np.sqrt(dt)
                h = em_step(h, -theta * h, 1.0, dw, dt)
            errs.append(abs(h.mean() - np.exp(-1.0)))
        assert 0.35 <= errs[1] / errs[0] <= 0.65


class TestIntegrate:
    def _setup(self, g=1.0, steps=8, scheme="em", seed=0, n=3, d=2):
        cfg = SDEConfig(steps=steps, g=g, scheme=scheme)
        path = BrownianPath(seed, steps, n, d)
        h0 = Tensor(np.arange(float(n * d)).reshape(n, d))
        return cfg, path, h0

    def test_identical_drifts_zero_kl(self):
        cfg, path, h0 = self._setup()
        drift = const_drift(0.3)
        _, kl = integrate(h0, drift, drift, cfg, path)
        assert float(kl.data) == 0.0

    def test_constant_offset_closed_form(self):
        # kl = 0.5 * n * d * (delta/g)^2 * (t1-t0), exact for constant drifts
        delta, g = 0.7, 1.3
        cfg, path, h0 = self._setup(g=g, steps=64)
        _, kl = integrate(h0, const_drift(delta), const_drift(0.0), cfg, path)
        expect = 0.5 * 3 * 2 * (delta / g) ** 2
        assert float(kl.data) == pytest.approx(expect, rel=1e-12)

    def test_kl_decreases_monotonically_in_g(self):
        kls = []
        for g in (0.5, 1.0, 2.0, 4.0):
            cfg, path, h0 = self._setup(g=g)
            _, kl = integrate(h0, const_drift(1.0), const_drift(0.0), cfg, path)
            kls.append(float(kl.data))
        assert all(a > b for a, b in zip(kls, kls[1:]))

    def test_initial_state_preserved(self):
        cfg, path, h0 = self._setup()
        before = h0.data.copy()
        h1, _ = integrate(h0, const_drift(0.1), const_drift(0.0), cfg, path)
        assert np.array_equal(h0.data, before)
        assert h1.data.shape == h0.data.shape

    def test_without_prior_the_kl_is_skipped(self):
        cfg, path, h0 = self._setup()
        h_kl, _ = integrate(h0, const_drift(0.1), const_drift(0.0), cfg, path)
        h, kl = integrate(h0, const_drift(0.1), None, cfg, path)
        assert kl is None
        assert np.array_equal(h.data, h_kl.data)

    def test_coupled_paths_drift_only_deviation(self):
        # same path, g=0 limit, identical drift: the gap evolves as an ODE
        cfg = SDEConfig(steps=16, g=1e-12, scheme="em")
        path = BrownianPath(4, 16, 2, 2)
        drift = lambda h, t: h * (-0.5) if isinstance(h, Tensor) else -0.5 * h
        a, _ = integrate(Tensor(np.ones((2, 2))), drift, drift, cfg, path)
        b, _ = integrate(Tensor(np.ones((2, 2)) + 0.1), drift, drift, cfg, path)
        gap = b.data - a.data
        expect = 0.1 * (1 - 0.5 / 16) ** 16
        assert np.abs(gap - expect).max() < 1e-12

    def test_kl_quadrature_converges(self):
        # state-dependent smooth drift, noiseless dynamics: |kl(L)-kl(2L)| -> 0
        drift_a = lambda h, t: np.tanh(h) if not isinstance(h, Tensor) else ad.tanh(h)
        drift_b = const_drift(0.0)
        kls = {}
        for L in (8, 16, 32, 64):
            cfg = SDEConfig(steps=L, g=1e-9, scheme="em")
            path = BrownianPath(0, L, 3, 2)
            h0 = Tensor(np.linspace(-1, 1, 6).reshape(3, 2))
            kls[L] = float(integrate(h0, drift_a, drift_b, cfg, path)[1].data)
        gaps = [abs(kls[8] - kls[16]), abs(kls[16] - kls[32]),
                abs(kls[32] - kls[64])]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] / gaps[0] < 0.6 and gaps[2] / gaps[1] < 0.6

    def test_kl_gradient_matches_finite_differences(self):
        # posterior drift is tanh(H W): KL grad w.r.t. W against central FD
        cfg, path, h0 = self._setup(steps=6)
        rng = np.random.Generator(np.random.PCG64(7))
        w = Tensor(rng.standard_normal((2, 2)) * 0.4, requires_grad=True)

        def drift(h, t):
            if isinstance(h, Tensor):
                return ad.tanh(ad.matmul(h, w))
            return np.tanh(h @ w.data)

        _, kl = integrate(h0, drift, const_drift(0.0), cfg, path)
        backward(kl)
        eps = 1e-6
        fd = np.zeros_like(w.data)
        for idx in np.ndindex(*w.data.shape):
            orig = w.data[idx]
            vals = []
            for delta in (eps, -eps):
                w.data[idx] = orig + delta
                with ad.no_grad():
                    vals.append(float(integrate(
                        h0, drift, const_drift(0.0), cfg, path)[1].data))
            w.data[idx] = orig
            fd[idx] = (vals[0] - vals[1]) / (2 * eps)
        denom = np.maximum(np.abs(fd), 1e-4)
        assert (np.abs(w.grad - fd) / denom).max() < 1e-4

    @pytest.mark.parametrize("scheme", ["em", "srk"])
    def test_observer_sees_the_states_of_shorter_runs(self, scheme):
        # dt = 1/8 is dyadic, so the run to t0 + j dt has the same grid
        cfg, path, h0 = self._setup(steps=8, scheme=scheme)
        drift = lambda h, t: ad.tanh(h) * (0.5 - t)
        seen = {}
        h1, _ = integrate(h0, drift, None, cfg, path,
                          lambda j, h: seen.__setitem__(j, h.copy()))
        assert sorted(seen) == list(range(1, 9))
        assert np.array_equal(seen[8], h1.data)
        for j in range(1, 8):
            short = SDEConfig(t1=j * cfg.dt, steps=j, scheme=scheme)
            assert short.dt == cfg.dt
            hj, _ = integrate(h0, drift, None, short, np.stack(list(path))[:j])
            assert np.array_equal(seen[j], hj.data)

    def test_diverged_names_step(self):
        # the isfinite scan: no errstate, the drift makes inf without a flag
        cfg = SDEConfig(steps=4, g=1.0, scheme="em")
        path = BrownianPath(0, 4, 1, 1)

        def blowup(h, t):
            data = h.data if isinstance(h, Tensor) else h
            return Tensor(np.full(data.shape, np.inf))

        with pytest.raises(DivergedError, match=r"^integration diverged at step 0 "
                                                r"\(t = 0, max \|H\| = 1\)$") as e:
            integrate(Tensor(np.ones((1, 1))), blowup, const_drift(0.0), cfg, path)
        assert (e.value.step, e.value.t, e.value.max_abs_h, e.value.sample) == (0, 0.0, 1.0, None)

    # SRK evaluates the drift a second time inside step 0, where it overflows
    @pytest.mark.parametrize("scheme, step", [("em", 1), ("srk", 0)])
    def test_floating_point_error_names_the_step(self, scheme, step):
        cfg = SDEConfig(steps=4, g=1.0, scheme=scheme)
        path = BrownianPath(0, 4, 1, 1)
        h0 = Tensor(np.ones((1, 1)))
        states = {0: h0.data}
        with np.errstate(all="raise"), pytest.raises(
                DivergedError, match=rf"^integration diverged at step {step} \(t = "
                                     rf"{step * cfg.dt:g}, max \|H\| = \S+\): overflow") as e:
            integrate(h0, lambda h, t: h * 1e300, None, cfg, path,
                      lambda j, h: states.__setitem__(j, h))
        assert isinstance(e.value.__cause__, FloatingPointError)
        # where it diverged: the state entering the step, not the one it made
        assert (e.value.step, e.value.t) == (step, cfg.t0 + step * cfg.dt)
        assert e.value.max_abs_h == np.abs(states[step]).max()
        assert f"max |H| = {e.value.max_abs_h:.3g})" in str(e.value)

    def test_observer_error_names_the_finite_state(self):
        # step 1 is finite; squaring its state in the observer overflows
        cfg = SDEConfig(steps=4, g=1.0, scheme="em")
        h0 = Tensor(np.ones((1, 1)))

        def observe(j, h):
            if j == 2:
                (h * 1e300) ** 2

        with np.errstate(all="raise"), pytest.raises(
                DivergedError, match=r"^step 1 ended with a finite state \(t = 0.5, max "
                                     r"\|H\| = 3\), but reducing that state failed: "
                                     r"overflow encountered in square$") as e:
            integrate(h0, const_drift(4.0), None, cfg, np.zeros((4, 1, 1)), observe)
        assert isinstance(e.value.__cause__, FloatingPointError)
        assert (e.value.step, e.value.t, e.value.max_abs_h) == (1, 0.5, 3.0)

    @pytest.mark.parametrize("scheme", ["em", "srk"])
    def test_per_step_arrays_equal_the_path_array(self, scheme):
        # a stream of per-step copies drives the solver to the same bits
        cfg, path, h0 = self._setup(steps=6, scheme=scheme)
        drift = lambda h, t: ad.tanh(h) * (0.5 - t)
        runs = []
        for increments in (np.stack(list(path)), (dw.copy() for dw in path)):
            seen = {}
            h1, kl = integrate(h0, drift, const_drift(0.2), cfg, increments,
                               lambda j, h: seen.__setitem__(j, h.copy()))
            runs.append((h1.data, float(kl.data), seen))
        (h_a, kl_a, seen_a), (h_b, kl_b, seen_b) = runs
        assert np.array_equal(h_a, h_b)
        assert kl_a == kl_b
        assert sorted(seen_a) == sorted(seen_b) == list(range(1, 7))
        for j in seen_a:
            assert np.array_equal(seen_a[j], seen_b[j])

    @pytest.mark.parametrize("steps, message", [
        (3, "increments hold 3 steps, the config wants 4"),
        (5, "increments hold more than 4 steps, the config wants 4")])
    def test_stream_of_the_wrong_length(self, steps, message):
        cfg = SDEConfig(steps=4)
        stream = iter(BrownianPath(0, steps, 2, 3))
        with pytest.raises(ValueError, match=f"^{message}$"):
            integrate(Tensor(np.ones((2, 3))), const_drift(0.0), None, cfg, stream)

    def test_step_of_the_wrong_shape(self):
        cfg = SDEConfig(steps=4)
        steps = list(BrownianPath(0, 4, 2, 3))
        steps[2] = np.zeros((3, 2))
        with pytest.raises(ValueError, match=r"^increment 2 has shape \(3, 2\), "
                                             r"the state has \(2, 3\)$"):
            integrate(Tensor(np.ones((2, 3))), const_drift(0.0), None, cfg, iter(steps))

    def test_path_config_mismatch(self):
        cfg = SDEConfig(steps=4)
        path = BrownianPath(0, 8, 1, 1)
        with pytest.raises(ValueError, match="steps"):
            integrate(Tensor(np.ones((1, 1))), const_drift(0.0),
                      const_drift(0.0), cfg, path)


class TestSDEConfig:
    @pytest.mark.parametrize("kwargs", [dict(t1=0.0), dict(steps=0),
                                        dict(g=0.0), dict(scheme="milstein")])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SDEConfig(**kwargs)

    def test_t0_is_a_constant_not_a_field(self):
        with pytest.raises(TypeError, match="t0"):
            SDEConfig(t0=0.5)
        assert [f.name for f in fields(SDEConfig)] == ["t1", "steps", "g", "scheme"]
        cfg = SDEConfig(t1=2.0, steps=8)
        assert cfg.t0 == 0.0 and cfg.dt == 0.25
