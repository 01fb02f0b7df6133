import threading
import time
from dataclasses import fields

import numpy as np
import pytest

import lgnsde.autodiff as ad
from lgnsde.autodiff import Tensor, backward
from lgnsde.sde import (BrownianPath, DivergedError, SDEConfig, _drawn_ahead,
                        em_step, integrate, srk_step)
from lgnsde.verify import chi2_ppf
from tests.test_model import make_graph, small_model


def const_drift(value):
    return lambda h, t: np.full(h.shape, value) if not isinstance(h, Tensor) \
        else Tensor(np.full(h.data.shape, value))


def one_step_law(scheme, a_dt):
    """(c, s) of a step under the linear drift F = -a H: every step is
    H' = c H + s g dW, EM with c = 1 - a dt and s = 1, SRK with
    c = 1 - a dt + (a dt)^2 / 2 and s = 1 - a dt / 2."""
    if scheme == "em":
        return 1 - a_dt, 1.0
    return 1 - a_dt + a_dt ** 2 / 2, 1 - a_dt / 2


def ou_law(scheme, steps):
    """The exact (mean, variance) of the scheme's H(1) on dH = -H dt + dW
    from H(0) = 1 in `steps` steps: H_N = c^N + s sqrt(dt) sum_k c^k z_k."""
    dt = 1.0 / steps
    c, s = one_step_law(scheme, dt)
    return c ** steps, dt * s * s * sum(c ** (2 * k) for k in range(steps))


def run_ou(scheme, steps, paths, seed):
    """H(1) of `paths` independent solves of dH = -H dt + dW from H(0) = 1."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dt = 1.0 / steps
    drift = lambda h, t: -h
    h = np.ones(paths)
    for j in range(steps):
        dw = rng.standard_normal(paths) * np.sqrt(dt)
        if scheme == "em":
            h = em_step(h, drift(h, 0), 1.0, dw, dt)
        else:
            h = srk_step(h, drift, 1.0, dw, dt, j * dt)
    return h


def assert_gaussian_law(h, mean, var, delta=1e-6):
    """Samples h of N(mean, var): the sample mean lies in its exact
    N(mean, var / n) band and the sample variance in its chi^2 band with
    n - 1 degrees of freedom, each tail delta."""
    n = h.size
    z = np.sqrt(chi2_ppf(1 - 2 * delta, 1))  # the normal's 1 - delta quantile
    assert abs(h.mean() - mean) <= z * np.sqrt(var / n)
    stat = (n - 1) * h.var(ddof=1) / var
    assert chi2_ppf(delta, n - 1) <= stat <= chi2_ppf(1 - delta, n - 1)


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


def started_threads(monkeypatch):
    """A list that records every thread started from now on."""
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


class TestDrawnAhead:
    SHAPE, T1 = (5, 2), 1.3

    def path(self, steps):
        return BrownianPath(8, steps, *self.SHAPE, t1=self.T1)

    # shorter than, as long as and longer than the pair of buffers
    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 13])
    def test_stream_equals_sequential_draws(self, steps):
        path = self.path(steps)
        with _drawn_ahead(path) as stream:
            drawn = [dw.copy() for dw in stream]
        want = list(path)
        assert len(drawn) == len(want) == steps
        assert all(np.array_equal(a, b) for a, b in zip(drawn, want))

    # two buffers, one held by the caller: each draw takes the path's
    # generator once, and at most one draw is taken ahead of the caller
    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 13])
    def test_rngs_are_taken_at_most_buffers_minus_one_ahead(self, steps):
        path = self.path(steps)
        draw = path.draw
        taken = []

        def counted(rng, out=None):
            taken.append(threading.current_thread())
            return draw(rng, out)

        path.draw = counted
        with _drawn_ahead(path) as stream:
            for received, _ in enumerate(stream, 1):
                time.sleep(1e-3)  # time for the helper to take what is queued
                assert len(taken) <= min(received + 1, steps)
        assert len(taken) == steps
        # the caller draws step 0, the helper every later step
        assert taken[0] is threading.current_thread()
        assert threading.current_thread() not in taken[1:]

    @pytest.mark.parametrize("steps", [2, 4])
    def test_no_thread_outlives_a_raising_consumer(self, steps, monkeypatch):
        started = started_threads(monkeypatch)
        with pytest.raises(RuntimeError, match="consumer failed"):
            with _drawn_ahead(self.path(steps)) as stream:
                for received, _ in enumerate(stream, 1):
                    if received == 2:
                        raise RuntimeError("consumer failed")
        assert len(started) == 1
        assert not started[0].is_alive()


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
        # dH = -H dt + dW from H(0) = 1: Var(H(1)) = (1 - e^-2)/2. The
        # scheme's exact law is within 1.4e-5 of it at L = 100 (-1.31e-5),
        # and at L = 20 its mean-plus-variance error is 4.9e-4 against
        # EM's 2.4e-2
        m_true, v_true = np.exp(-1.0), (1 - np.exp(-2.0)) / 2
        mean, var = ou_law("srk", 100)
        assert abs(var - v_true) < 1.4e-5
        em, srk = (sum(abs(x - y) for x, y in zip(ou_law(scheme, 20), (m_true, v_true)))
                   for scheme in ("em", "srk"))
        assert srk < 5e-4 and em > 2e-2
        assert_gaussian_law(run_ou("srk", 100, 10_000, seed=0), mean, var)

    def test_em_weak_convergence_halves(self):
        # EM's exact mean error on the OU problem falls by a factor of
        # 0.489 when L doubles from 10 to 20: weak order one
        m_true = np.exp(-1.0)
        errs = [abs(ou_law("em", L)[0] - m_true) for L in (10, 20)]
        assert 0.48 < errs[1] / errs[0] < 0.5
        for L in (10, 20):
            assert_gaussian_law(run_ou("em", L, 400_000, seed=2), *ou_law("em", L))


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
    def test_linear_drift_final_state_is_exactly_chi2(self, scheme):
        # F = -a H from H(0) = 0 makes every step H' = c H + s g dW (see
        # one_step_law). So H(t1) is Gaussian with per-coordinate
        # variance g^2 dt s^2 sum_{k<N} c^(2k), and ||H(t1)||^2 over that
        # variance is chi^2 with one degree of freedom per coordinate. The
        # prior -b H does not move the state
        a, b, g, steps, paths = 1.5, 0.5, 0.8, 16, 20_000
        cfg = SDEConfig(t1=1.0, steps=steps, g=g, scheme=scheme)
        dt = cfg.dt
        c, s = one_step_law(scheme, a * dt)
        var = g * g * dt * s * s * sum(c ** (2 * k) for k in range(steps))
        with ad.no_grad():
            h, kl = integrate(Tensor(np.zeros((paths, 1))), lambda x, t: x * -a,
                              lambda x, t: x * -b, cfg, BrownianPath(5, steps, paths, 1))
        stat = float((h.data ** 2).sum()) / var
        # each tail 1e-6
        assert chi2_ppf(1e-6, paths) <= stat <= chi2_ppf(1 - 1e-6, paths)
        # the left-endpoint KL is w sum_{j<N} ||H_j||^2, w = (((a - b) / g)^2 / 2) dt.
        # Per coordinate (H_0 .. H_{N-1}) = L z for N standard normals z, with
        # L[j, k] = s g sqrt(dt) c^(j-1-k) for k < j, so the KL is a sum of
        # paths copies of z^T (w L^T L) z: weighted chi^2 with the
        # eigenvalues lam of w L^T L as weights, each repeated once per path.
        # Its mean is exact, and Laurent & Massart (Ann. Statist. 2000,
        # Lemma 1) bound each tail by delta / 2
        w = 0.5 * ((a - b) / g) ** 2 * dt
        mean = sum(w * paths * g * g * dt * s * s * sum(c ** (2 * k) for k in range(j))
                   for j in range(steps))
        j, k = np.indices((steps, steps))
        L = np.where(k < j, s * g * np.sqrt(dt) * c ** (j - 1.0 - k), 0.0)
        lam = np.linalg.eigvalsh(w * L.T @ L)
        assert lam.sum() * paths == pytest.approx(mean, rel=1e-12)
        x = np.log(2 / 1e-6)
        spread = 2 * np.sqrt(paths) * np.linalg.norm(lam) * np.sqrt(x)
        assert mean - spread <= float(kl.data) <= mean + spread + 2 * lam.max() * x

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
        # the path's array, a stream of per-step copies (both kept as the
        # step's second input) and the path itself (each step drawn inside
        # its node and drawn again in backward) drive the solver to the
        # same bits, and give a taped h0 the same gradient
        cfg, path, h0 = self._setup(steps=6, scheme=scheme)
        drift = lambda h, t: ad.tanh(h) * (0.5 - t)
        runs = []
        for increments in (np.stack(list(path)), (dw.copy() for dw in path), path):
            seen = {}
            h = Tensor(h0.data, requires_grad=True)
            h1, kl = integrate(h, drift, const_drift(0.2), cfg, increments,
                               lambda j, h: seen.__setitem__(j, h.copy()))
            backward(ad.tensor_sum(h1 * h1) + kl)
            runs.append((h1.data, float(kl.data), h.grad, seen))
        for h1, kl, grad, seen in runs[1:]:
            assert np.array_equal(h1, runs[0][0])
            assert kl == runs[0][1]
            assert np.array_equal(grad, runs[0][2])
            assert sorted(seen) == sorted(runs[0][3]) == list(range(1, 7))
            for j in seen:
                assert np.array_equal(seen[j], runs[0][3][j])

    @pytest.mark.parametrize("scheme", ["em", "srk"])
    def test_path_drawn_ahead_equals_the_array_form(self, scheme, monkeypatch):
        # with the tape off integrate draws a path on one helper thread,
        # joined before it returns, to the bits of the path's array
        cfg, path, h0 = self._setup(steps=6, scheme=scheme)
        drift = lambda h, t: ad.tanh(h) * (0.5 - t)
        with ad.no_grad():
            want, _ = integrate(h0, drift, None, cfg, np.stack(list(path)))
            started = started_threads(monkeypatch)
            h1, _ = integrate(h0, drift, None, cfg, path)
        assert np.array_equal(h1.data, want.data)
        assert len(started) == 1
        assert not started[0].is_alive()

    def test_taped_training_loss_starts_no_thread(self, monkeypatch):
        # on the tape each step draws its increment inside its checkpoint,
        # on the caller's thread, forward and backward alike
        graph = make_graph()
        m = small_model(graph, dropout=0.2)
        path = BrownianPath(3, 4, graph.n, m.hidden)
        started = started_threads(monkeypatch)
        backward(m.training_loss(graph, path, np.random.Generator(np.random.PCG64(0))))
        assert started == []
        assert m.W1.grad is not None

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

    @pytest.mark.parametrize("taped", [True, False], ids=["tape", "no-tape"])
    @pytest.mark.parametrize("path, message", [
        # dt = 25 against the solve's 0.25: noise 10x too large
        (BrownianPath(0, 4, 3, 2, t1=100.0), r"4 steps of \(3, 2\) at scale 5\.0, .* "
                                             r"4 of \(3, 2\) at scale 0\.5$"),
        (BrownianPath(0, 8, 3, 2, t1=2.0), r"8 steps of \(3, 2\) at scale 0\.5, .* 4 of"),
        (BrownianPath(0, 4, 2, 3), r"4 steps of \(2, 3\) at scale 0\.5, .* 4 of \(3, 2\)"),
    ], ids=["other-dt", "too-long", "other-shape"])
    def test_path_on_another_grid_is_rejected_before_step_0(self, path, message, taped):
        calls = []

        def drift(h, t):
            calls.append(t)
            return h * 0.0

        h0 = Tensor(np.ones((3, 2)), requires_grad=taped)
        with ad._recording(taped), pytest.raises(ValueError, match=f"^the path has {message}"):
            integrate(h0, drift, None, SDEConfig(t1=1.0, steps=4), path)
        assert calls == []


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
