import tracemalloc

import numpy as np
import pytest

from lgnsde import verify
from lgnsde.autodiff import SparseMatrix, Tensor, no_grad
from lgnsde.graphdata import sbm_generate
from lgnsde.model import LGNSDEModel
from lgnsde.sde import BrownianPath, DivergedError
from lgnsde.verify import (elbo_gradient_check, estimate_lipschitz,
                           lemma1_check, lemma2_check, resnet_equivalence,
                           write_report)
from tests.test_model import make_graph, small_model


class TestEstimateLipschitz:
    @pytest.mark.parametrize("seed", range(3))
    def test_bounds_secants_and_jacobians(self, seed):
        # sampled probes of the drift's Lipschitz constant, random secants
        # and local finite-difference Jacobians, stay below the certificate
        g = make_graph()
        m = small_model(g, hidden=3, seed=seed)
        l_f = estimate_lipschitz(m)
        tensor_drift = m.posterior_drift_fn(g)

        def drift(h, t):
            # a (B, n, d) stack goes in node-major, as (n*B, d)
            with no_grad():
                out = tensor_drift(Tensor(np.swapaxes(h, 0, 1).reshape(-1, m.hidden)), t).data
            return np.swapaxes(out.reshape(g.n, len(h), -1), 0, 1)

        rng = np.random.Generator(np.random.PCG64(seed))
        shape = (g.n, m.hidden)
        for _ in range(200):
            pair = 3.0 * rng.standard_normal((2,) + shape)
            f = drift(pair, rng.uniform(0.0, 1.0))
            assert (np.linalg.norm(f[1] - f[0])
                    <= l_f * np.linalg.norm(pair[1] - pair[0]) * (1 + 1e-12))
        eps = 1e-6
        for _ in range(5):
            h = 3.0 * rng.standard_normal(shape)
            pert = np.tile(h.reshape(-1), (h.size + 1, 1))
            pert[np.arange(1, h.size + 1), np.arange(h.size)] += eps
            out = drift(pert.reshape((-1,) + shape),
                        rng.uniform(0.0, 1.0)).reshape(h.size + 1, -1)
            jac = (out[1:] - out[0]).T / eps
            assert np.linalg.norm(jac, 2) <= l_f * (1 + 1e-4)

    def test_diagonal_weights(self):
        g = make_graph()
        m = small_model(g, hidden=3)
        m.W1.data[:3] = np.diag([0.5, -2.0, 1.0])
        m.W2.data[:] = np.diag([1.5, 0.25, -3.0])
        assert estimate_lipschitz(m) == 2.0 * 3.0

    def test_time_row_does_not_enter(self):
        g = make_graph()
        m = small_model(g, hidden=3, seed=1)
        before = estimate_lipschitz(m)
        m.W1.data[3] = [40.0, -7.0, 12.0]
        assert type(before) is float
        assert estimate_lipschitz(m) == before

    def test_constant_drift_zero(self):
        g = make_graph()
        m = small_model(g, hidden=2)
        m.W2.data[:] = 0.0
        assert estimate_lipschitz(m) == 0.0


class TestLemma1:
    def test_zero_drift_diffusion_equality(self):
        # with zeroed drift Var(H(t)) = g^2 t n h exactly in distribution
        g = make_graph()
        m = small_model(g, hidden=2, g=0.7)
        out = lemma1_check(m, g, mc=20_000, seed=3, zero_drift=True)
        assert out["pass"]
        for row in out["grid"]:
            expect = 0.7 ** 2 * row["t"] * g.n * m.hidden
            assert row["diffusion_bound"] == pytest.approx(expect, rel=1e-12)
            assert row["diffusion_low"] < expect < row["diffusion_high"]
            assert row["var_h"] == pytest.approx(expect, rel=0.05)
            assert row["diffusion_pass"]

    @pytest.mark.parametrize("scale", [0.7, 1.3])
    def test_control_gate_catches_scaled_noise(self, monkeypatch, scale):
        # noise scaled by 0.7 or 1.3 scales the control's variance by 0.49 or
        # 1.69: far outside the band, and invisible to the output gate
        integrate = verify.integrate

        def scaled(h0, drift, prior, cfg, increments, observe):
            return integrate(h0, drift, prior, cfg, increments * scale, observe)

        g = make_graph()
        m = small_model(g, hidden=2)
        assert lemma1_check(m, g, seed=0, zero_drift=True)["pass"]
        monkeypatch.setattr(verify, "integrate", scaled)
        out = lemma1_check(m, g, seed=0, zero_drift=True)
        assert not any(row["diffusion_pass"] for row in out["grid"])
        assert all(row["output_pass"] for row in out["grid"])
        assert not out["pass"]

    def test_var_y_is_the_decoder_readout(self, monkeypatch):
        # var_y comes through model.decode, bitwise equal to h @ W_dec + b_dec
        # on the states the solver hands the observer
        g = make_graph()
        m = small_model(g, hidden=3, seed=2)
        m.b_dec.data = np.array([0.3, -1.2, 2.0])
        states = {}
        integrate = verify.integrate

        def copying(h0, drift, prior, cfg, increments, observe):
            def both(j, h):
                states[j] = h.copy()
                observe(j, h)

            return integrate(h0, drift, prior, cfg, increments, both)

        monkeypatch.setattr(verify, "integrate", copying)
        out = lemma1_check(m, g, seed=4, grid_points=m.sde_config.steps)
        mc = out["mc"]
        expect = [float((states[j] @ m.W_dec.data + m.b_dec.data)
                        .reshape(g.n, mc, -1).var(axis=1, ddof=1).sum())
                  for j in sorted(states)]
        assert [row["var_y"] for row in out["grid"]] == expect

    def test_output_bound_holds_with_trained_drift(self):
        g = make_graph()
        m = small_model(g, hidden=3)
        out = lemma1_check(m, g, mc=5_000, seed=1)
        assert out["pass"]

    def test_closed_form_ratio_small_decoder(self):
        # decoder = [[2,0],[0,1]]: var_y = 4 var_h1 + var_h2 <= 4 var_h
        g = make_graph()
        m = small_model(g, hidden=2)
        m.W_dec.data = np.array([[2.0, 0.0], [0.0, 1.0]])
        m.b_dec.data = np.zeros(2)
        out = lemma1_check(m, g, mc=2_000, seed=0)
        assert out["L_h"] == pytest.approx(2.0, rel=1e-10)
        assert out["pass"]

    def test_output_gate_equality_case(self):
        # one hidden unit: y = h w + b, so var_y = ||w||^2 var_h exactly,
        # and only rounding separates the two sides
        g = make_graph()
        for seed in range(10):
            m = small_model(g, hidden=1, seed=seed)
            m.b_dec.data = np.array([0.3, -1.2, 2.0])
            out = lemma1_check(m, g, mc=1_000, seed=seed)
            assert out["pass"]
            for row in out["grid"]:
                assert row["output_bound"] == out["L_h"] ** 2 * row["var_h"]
                assert row["output_pass"]

    def test_variance_scales_with_g_squared(self):
        g = make_graph()
        var = {}
        for gval in (0.5, 1.0):
            m = small_model(g, hidden=2, g=gval, seed=4)
            out = lemma1_check(m, g, mc=10_000, seed=2, zero_drift=True)
            var[gval] = out["grid"][-1]["var_h"]
        assert var[1.0] / var[0.5] == pytest.approx(4.0, rel=0.1)

    def test_rejects_small_mc(self):
        g = make_graph()
        with pytest.raises(ValueError):
            lemma1_check(small_model(g), g, mc=10)

    def test_rejects_empty_grid(self):
        # no rows would make an empty report that passes
        g = make_graph()
        with pytest.raises(ValueError, match="grid point"):
            lemma1_check(small_model(g), g, mc=1_000, grid_points=0)

    def test_zero_drift_never_evaluates_drift(self):
        def raising(h, t):
            raise AssertionError("zero-drift run evaluated the drift")

        g = make_graph()
        m = small_model(g, hidden=2)
        m.posterior_drift_fn = lambda graph, rng=None: raising
        out = lemma1_check(m, g, seed=0, zero_drift=True)
        assert out["pass"]

    def test_peak_is_a_few_ensembles(self):
        # the batch is integrated with one (steps, n*mc, hidden) increments
        # array, so the peak is `steps` ensembles of noise plus the state,
        # the solver's temporaries (two drift evaluations under SRK) and the
        # variance's: 22.0 to 24.3 ensembles at 16 steps
        g = sbm_generate(3, 12, 0.3, 0.03, 8, 2.0, seed=0)
        m = LGNSDEModel(g.d_in, g.num_classes, hidden=8, steps=16, seed=0)
        mc = 2000
        ensemble = mc * g.n * m.hidden * 8
        for zero_drift in (False, True):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                lemma1_check(m, g, mc=mc, seed=0, zero_drift=zero_drift)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= (m.sde_config.steps + 10) * ensemble, (zero_drift, peak / ensemble)

    # SRK evaluates the drift at t + dt inside step 2, where it overflows
    @pytest.mark.parametrize("scheme, step", [("em", 3), ("srk", 2)])
    def test_floating_point_error_names_the_step(self, scheme, step):
        # one integration over the whole grid, so j counts from t0
        def late_blowup(h, t):
            return h * (1e308 if t > 0.6 else 0.0)

        g = make_graph()
        m = small_model(g, hidden=2, scheme=scheme)
        m.posterior_drift_fn = lambda graph, rng=None: late_blowup
        with np.errstate(all="raise"), pytest.raises(
                DivergedError, match=f"^integration diverged at step {step}: overflow") as e:
            lemma1_check(m, g, seed=0)
        assert isinstance(e.value.__cause__, FloatingPointError)

    def test_zero_drift_leaves_parameters_unchanged(self):
        g = make_graph()
        m = small_model(g, hidden=3, seed=5)
        arrays = [p.data for p in m.parameters()]
        before = [a.tobytes() for a in arrays]
        lemma1_check(m, g, mc=1_000, seed=0, zero_drift=True)
        for p, a, data in zip(m.parameters(), arrays, before):
            assert p.data is a  # never swapped out and restored
            assert a.tobytes() == data


class TestLemma2:
    def test_epsilon_at_time_zero_limit(self):
        # one EM step from coupled starts: deviation stays near epsilon
        g = make_graph()
        m = small_model(g, hidden=2)
        out = lemma2_check(m, g, epsilon=1e-3, trials=20, grid_points=4, seed=0)
        assert out["pass"]
        first = out["grid"][0]
        assert first["measured"] == pytest.approx(1e-3, rel=0.5)

    def test_linear_drift_growth_rate(self, monkeypatch):
        # drift F(H) = lambda H on a decoupled graph: per step the deviation
        # grows by 1 + lambda dt (EM) or 1 + lambda dt + (lambda dt)^2 / 2
        # (SRK), and the e^{lambda t} bound dominates both
        g = make_graph(ring=False)
        lam = 0.9
        drift = lambda h, t: h * lam
        # the stub drift is not the GCN the certificate describes
        monkeypatch.setattr(verify, "estimate_lipschitz", lambda model: lam)
        for scheme in ("em", "srk"):
            m = small_model(g, hidden=2, g=1e-8, scheme=scheme)
            m.posterior_drift_fn = lambda graph, rng=None: drift
            out = lemma2_check(m, g, epsilon=1e-2, trials=10, grid_points=4, seed=1)
            assert out["pass"] and out["certificate_pass"]
            assert out["L_f_realized"] == pytest.approx(lam, rel=1e-9)
            last = out["grid"][-1]
            x = lam * m.sde_config.dt
            growth = 1 + x if scheme == "em" else 1 + x + x * x / 2
            discrete = 1e-2 * growth ** m.sde_config.steps
            assert last["measured"] == pytest.approx(discrete, rel=1e-6), scheme
            assert last["realized_bound"] >= last["measured"]
            assert last["bound"] >= last["measured"]

    def test_trained_like_model_passes(self):
        g = make_graph(n=12, d=4, c=3, seed=9)
        m = small_model(g, hidden=4, seed=9)
        out = lemma2_check(m, g, epsilon=1e-2, trials=30, grid_points=6, seed=5)
        assert out["pass"] and out["certificate_pass"]
        assert out["L_f"] >= out["L_f_realized"]

    @pytest.mark.parametrize("seed", range(3))
    def test_unnormalized_operator_fails(self, seed):
        # A + I instead of D^{-1/2}(A+I)D^{-1/2} (here all ones): ||A||_2 is
        # 12, not 1, so the drift outruns the certificate built on ||A|| = 1
        g = make_graph(n=12, d=4, c=3, seed=9)
        rows, cols = np.divmod(np.arange(g.n * g.n), g.n)
        g.norm_adj = SparseMatrix(rows, cols, np.ones(g.n * g.n), (g.n, g.n))
        m = small_model(g, hidden=4, seed=seed)
        out = lemma2_check(m, g, trials=30, seed=5)
        assert out["L_f_realized"] > out["L_f"]
        assert not out["certificate_pass"]
        assert not out["pass"]

    @pytest.mark.parametrize("kw", [dict(grid_points=0), dict(epsilon=0.0)],
                             ids=["empty_grid", "zero_epsilon"])
    def test_rejects_empty_grid_and_zero_epsilon(self, kw):
        g = make_graph()
        with pytest.raises(ValueError):
            lemma2_check(small_model(g), g, **kw)

    @staticmethod
    def _counting_drift(monkeypatch, model):
        """Patch the model's drift to count its calls; returns the times."""
        calls = []
        drift_fn = model.posterior_drift_fn

        def counting(graph, rng=None):
            drift = drift_fn(graph, rng)

            def counted(h, t):
                calls.append(t)
                return drift(h, t)

            return counted

        monkeypatch.setattr(model, "posterior_drift_fn", counting)
        return calls

    def test_drift_runs_once_per_state(self, monkeypatch):
        # EM evaluates the drift at each step's state, SRK also at its stage
        g = make_graph()
        for scheme in ("em", "srk"):
            m = small_model(g, hidden=2, steps=6, scheme=scheme)
            calls = self._counting_drift(monkeypatch, m)
            lemma2_check(m, g, trials=10, seed=0)
            cfg = m.sde_config
            times = [cfg.t0 + j * cfg.dt for j in range(cfg.steps)]
            if scheme == "srk":
                times = [s for t in times for s in (t, t + cfg.dt)]
            assert calls == times

    def test_equals_reevaluating_copied_states(self, monkeypatch):
        # the reference keeps a copy of every coupled state, rebuilds the
        # SRK stage states and evaluates the drift on each a second time
        g = make_graph(n=12, d=4, c=3, seed=9)
        run = {}
        integrate = verify.integrate

        def copying(h0, drift, prior, cfg, increments, observe):
            run["states"], run["increments"] = [h0.data.copy()], increments

            def both(j, h):
                run["states"].append(h.copy())
                observe(j, h)

            return integrate(h0, drift, prior, cfg, increments, both)

        def gap(x):
            pairs = x.reshape(g.n, 2, 30, -1)
            return np.linalg.norm(pairs[:, 1] - pairs[:, 0], axis=(0, 2))

        monkeypatch.setattr(verify, "integrate", copying)
        for scheme in ("em", "srk"):
            m = small_model(g, hidden=4, seed=9, steps=6, scheme=scheme)
            out = lemma2_check(m, g, trials=30, grid_points=6, seed=5)
            cfg, f = m.sde_config, m.posterior_drift_fn(g)

            def drift(h, t):
                with no_grad():
                    return f(Tensor(h), t).data

            def ratio(h, t):
                dev, fdiff = gap(h), gap(drift(h, t))
                return float((fdiff[dev > 0] / dev[dev > 0]).max())

            states, realized = run["states"], 0.0
            for j in range(cfg.steps):
                t = cfg.t0 + j * cfg.dt
                realized = max(realized, ratio(states[j], t))
                if scheme == "srk":
                    stage = (states[j] + drift(states[j], t) * cfg.dt
                             + cfg.g * run["increments"][j])
                    realized = max(realized, ratio(stage, t + cfg.dt))
            assert out["L_f_realized"] == realized, scheme
            assert out["L_f"] == estimate_lipschitz(m)
            assert out["certificate_pass"]
            assert [r["measured"] for r in out["grid"]] == [
                float(gap(states[j]).mean()) for j in range(1, cfg.steps + 1)]


class TestResNetEquivalence:
    @pytest.mark.parametrize("steps", [1, 8, 32])
    def test_bitwise_agreement(self, steps):
        g = make_graph()
        m = small_model(g, hidden=3, scheme="em", steps=steps)
        path = BrownianPath(2, steps, g.n, m.hidden)
        assert resnet_equivalence(m, g, path) < 1e-12

    def test_srk_model_is_checked_with_em(self):
        # the check integrates the model it is given with EM, whatever
        # scheme it was trained with, and does not change its config
        g = make_graph()
        m = small_model(g, hidden=2, scheme="srk", steps=4)
        path = BrownianPath(0, 4, g.n, m.hidden)
        dev = resnet_equivalence(m, g, path)
        em = small_model(g, hidden=2, scheme="em", steps=4)
        assert dev < 1e-12
        assert dev == resnet_equivalence(em, g, path)
        assert m.sde_config.scheme == "srk"

    def test_rejects_depth_mismatch(self):
        g = make_graph()
        m = small_model(g, hidden=2, scheme="em", steps=4)
        path = BrownianPath(0, 8, g.n, m.hidden)
        with pytest.raises(ValueError, match="steps"):
            resnet_equivalence(m, g, path)


class TestGradientCheck:
    def test_small_model_passes_tolerance(self):
        g = make_graph(n=6, d=3, c=2, seed=2)
        m = small_model(g, hidden=2, seed=2)
        path = BrownianPath(7, m.sde_config.steps, g.n, m.hidden)
        rep = elbo_gradient_check(m, g, path)
        assert rep["max"] < 1e-4
        assert set(rep) >= set(m._param_names)


class TestWriteReport:
    def test_json_and_csv(self, tmp_path):
        g = make_graph()
        m = small_model(g, hidden=2)
        out = lemma1_check(m, g, mc=1_000, seed=0)
        jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
        write_report(out, jp, cp)
        import json
        blob = json.loads(jp.read_text())
        assert blob["pass"] == out["pass"]
        lines = cp.read_text().strip().split("\n")
        assert len(lines) == len(out["grid"]) + 1

    def test_numpy_floats_written_as_plain_floats(self, tmp_path):
        report = {"grid": [{"a": np.float64(0.5), "b": 0.25, "c": True}]}
        cp = tmp_path / "r.csv"
        write_report(report, tmp_path / "r.json", cp)
        assert cp.read_text().splitlines() == ["a,b,c", "0.5,0.25,True"]
