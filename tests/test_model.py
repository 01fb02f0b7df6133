import threading
import tracemalloc

import numpy as np
import pytest

import lgnsde.autodiff as ad
from lgnsde.autodiff import Tensor, backward
from lgnsde.graphdata import SplitSpec, build_graph, make_splits, sbm_generate
from lgnsde.model import LGNSDEModel
from lgnsde.sde import BrownianPath, DivergedError, integrate


def make_graph(n=9, d=4, c=3, seed=0, ring=True):
    rng = np.random.Generator(np.random.PCG64(seed))
    feats = rng.standard_normal((n, d))
    labels = rng.integers(0, c, size=n)
    labels[:c] = np.arange(c)  # every class present
    edges = [(i, (i + 1) % n) for i in range(n)] if ring else []
    g = build_graph(feats, labels, edges, num_classes=c)
    g.train_mask = np.zeros(n, dtype=bool)
    g.train_mask[:2 * c] = True
    g.val_mask = ~g.train_mask
    g.test_mask = ~g.train_mask
    return g


def small_model(graph, hidden=3, seed=0, **kw):
    kw.setdefault("dropout", 0.0)
    kw.setdefault("steps", 4)
    return LGNSDEModel(graph.d_in, graph.num_classes, hidden=hidden,
                       seed=seed, **kw)


class TestEncode:
    def test_identity_weights(self):
        g = make_graph(d=3)
        m = small_model(g, hidden=3)
        m.W_enc.data = np.eye(3)
        m.b_enc.data = np.zeros(3)
        assert np.abs(m.encode(g).data - g.features).max() < 1e-15

    def test_bias_only(self):
        g = make_graph(d=3)
        m = small_model(g, hidden=3)
        m.W_enc.data = np.zeros((3, 3))
        m.b_enc.data = np.array([1.0, -2.0, 0.5])
        out = m.encode(g).data
        assert np.allclose(out, np.tile([1.0, -2.0, 0.5], (g.n, 1)))

    def test_nodewise_no_mixing(self):
        # changing one node's features only changes that node's encoding
        g = make_graph()
        m = small_model(g)
        base = m.encode(g).data.copy()
        g.features[4] += 10.0
        bumped = m.encode(g).data
        diff = np.abs(bumped - base).max(axis=1)
        assert diff[4] > 0
        assert np.all(diff[np.arange(g.n) != 4] == 0)


class TestPosteriorDrift:
    def test_zero_weights_gives_bias(self):
        g = make_graph()
        m = small_model(g)
        for name in ("W1", "W2"):
            getattr(m, name).data[:] = 0.0
        m.b1.data[:] = 0.3
        m.b2.data[:] = -0.7
        f = m.posterior_drift_fn(g)
        out = f(Tensor(np.ones((g.n, m.hidden))), 0.5).data
        # A_hat tanh(0.3) has row sums <= 1 but b2 passes straight through
        assert np.allclose(out[:, 0], out[:, 1])
        expect = g.norm_adj.to_dense() @ (np.tanh(0.3) * np.ones((g.n, m.hidden))) \
            @ m.W2.data + m.b2.data
        assert np.abs(out - expect).max() < 1e-14

    def test_identity_adjacency_is_nodewise(self):
        # single isolated node graphs: drift must not couple nodes
        g = make_graph(ring=False)  # A = I after normalization
        m = small_model(g)
        f = m.posterior_drift_fn(g)
        h = np.arange(float(g.n * m.hidden)).reshape(g.n, m.hidden)
        base = f(Tensor(h.copy()), 0.2).data.copy()
        h2 = h.copy()
        h2[3] += 5.0
        out = f(Tensor(h2), 0.2).data
        diff = np.abs(out - base).max(axis=1)
        assert diff[3] > 0
        assert np.all(diff[np.arange(g.n) != 3] == 0)

    def test_batched_matches_loop(self):
        g = make_graph()
        m = small_model(g)
        f = m.posterior_drift_fn(g)
        rng = np.random.Generator(np.random.PCG64(2))
        batch = rng.standard_normal((5, g.n, m.hidden))
        stacked = Tensor(np.swapaxes(batch, 0, 1).reshape(g.n * 5, m.hidden))
        out = np.swapaxes(f(stacked, 0.7).data.reshape(g.n, 5, m.hidden), 0, 1)
        for i in range(5):
            assert np.abs(out[i] - f(Tensor(batch[i]), 0.7).data).max() < 1e-12

    def test_permutation_equivariance(self):
        # relabeling nodes permutes the drift output the same way
        g = make_graph()
        m = small_model(g)
        rng = np.random.Generator(np.random.PCG64(3))
        perm = rng.permutation(g.n)
        inv = np.argsort(perm)
        edges_p = [(int(inv[a]), int(inv[b])) for a, b in g.edges]
        gp = build_graph(g.features[perm], g.labels[perm], edges_p,
                         num_classes=g.num_classes)
        h = rng.standard_normal((g.n, m.hidden))
        f = m.posterior_drift_fn(g)
        fp = m.posterior_drift_fn(gp)
        out_p = fp(Tensor(h[perm]), 0.4).data
        assert np.abs(out_p - f(Tensor(h), 0.4).data[perm]).max() < 1e-12


class TestPriorDrift:
    def test_constant(self):
        g = make_graph()
        m = small_model(g, prior_mu=0.25)
        out = m.prior_drift(Tensor(np.zeros((g.n, m.hidden))), 0.1)
        assert np.all(out.data == 0.25)

    def test_ou(self):
        g = make_graph()
        m = small_model(g, prior_ou_theta=2.0)
        h = Tensor(np.full((g.n, m.hidden), 3.0))
        assert np.all(m.prior_drift(h, 0.0).data == -6.0)


class TestELBOGradients:
    @pytest.mark.parametrize("scheme", ["em", "srk"])
    def test_finite_difference_all_params(self, scheme):
        g = make_graph(n=6, d=3, c=2, seed=5)
        m = small_model(g, hidden=2, scheme=scheme, seed=5)
        path = BrownianPath(11, m.sde_config.steps, g.n, m.hidden)
        loss = ad.scale(m.elbo(g, path), -1.0)
        backward(loss)
        worst = 0.0
        for p in m.parameters():
            fd = np.zeros_like(p.data)
            for idx in np.ndindex(*p.data.shape):
                orig = p.data[idx]
                vals = []
                for d in (1e-5, -1e-5):
                    p.data[idx] = orig + d
                    with ad.no_grad():
                        vals.append(-float(m.elbo(g, path).data))
                p.data[idx] = orig
                fd[idx] = (vals[0] - vals[1]) / 2e-5
            rel = np.abs(p.grad - fd) / np.maximum(
                np.maximum(np.abs(fd), np.abs(p.grad)), 1e-4)
            worst = max(worst, rel.max())
        assert worst < 1e-4


class TestPredict:
    def test_rows_are_distributions(self):
        g = make_graph()
        m = small_model(g)
        probs = m.predict(g, mc_samples=3)
        assert probs.shape == (g.n, g.num_classes)
        assert np.abs(probs.sum(axis=1) - 1).max() < 1e-12
        assert probs.min() >= 0

    def test_deterministic_given_seed(self):
        g = make_graph()
        m = small_model(g)
        a = m.predict(g, mc_samples=4, master_seed=9)
        b = m.predict(g, mc_samples=4, master_seed=9)
        assert np.array_equal(a, b)
        c = m.predict(g, mc_samples=4, master_seed=10)
        assert not np.array_equal(a, c)

    def test_tiny_noise_collapses_mc_spread(self):
        # g ~ 0: every sample is the same ODE solve, so N=1 equals N=32
        gra = make_graph()
        m = small_model(gra, g=1e-9)
        a = m.predict(gra, mc_samples=1, master_seed=0)
        b = m.predict(gra, mc_samples=32, master_seed=1)
        assert np.abs(a - b).max() < 1e-6

    def test_return_samples_shape(self):
        g = make_graph()
        m = small_model(g)
        mean, samples = m.predict(g, mc_samples=5, return_samples=True)
        assert samples.shape == (5, g.n, g.num_classes)
        assert np.abs(samples.mean(axis=0) - mean).max() < 1e-15

    def test_rejects_zero_samples(self):
        g = make_graph()
        with pytest.raises(ValueError):
            small_model(g).predict(g, mc_samples=0)

    @pytest.mark.parametrize("scheme", ["em", "srk"])
    def test_equals_serial_reference(self, scheme):
        # each sample integrates BrownianPath(seed_i), one after another
        g = make_graph()
        m = small_model(g, scheme=scheme, steps=5)  # sqrt(dt) is inexact
        cfg = m.sde_config
        seeds = np.random.SeedSequence(11).generate_state(5)
        ref = []
        with ad.no_grad():
            h0, drift = m.encode(g), m.posterior_drift_fn(g)
            for s in seeds:
                path = BrownianPath(s, cfg.steps, g.n, m.hidden, cfg.t0, cfg.t1)
                h, _ = integrate(h0, drift, None, cfg, path.increments)
                ref.append(ad.softmax_rows(m.decode(h)).data)
        ref = np.stack(ref)
        mean, samples = m.predict(g, mc_samples=5, master_seed=11, return_samples=True)
        assert np.array_equal(samples, ref)
        assert np.array_equal(mean, ref.mean(axis=0))
        assert np.array_equal(m.predict(g, mc_samples=5, master_seed=11), mean)

    def test_no_thread_outlives_a_raising_drift(self):
        g = make_graph()
        m = small_model(g)
        drift_fn = m.posterior_drift_fn
        calls = []

        def failing(graph, rng=None):
            drift = drift_fn(graph, rng)

            def raising(h, t):
                calls.append(t)
                if len(calls) == 10:  # in the second sample, 8 SRK drift calls each
                    raise RuntimeError("drift failed")
                return drift(h, t)

            return raising

        m.posterior_drift_fn = failing
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="drift failed"):
            m.predict(g, mc_samples=5)
        assert threading.active_count() == before


class TestCheckpoint:
    def test_round_trip_predictions(self, tmp_path):
        g = make_graph()
        m = small_model(g, prior_ou_theta=0.5, g=0.8, scheme="em")
        p = tmp_path / "model.npz"
        m.save(p)
        m2 = LGNSDEModel.load(p)
        assert m2.config_dict() == m.config_dict()
        a = m.predict(g, mc_samples=3, master_seed=1)
        b = m2.predict(g, mc_samples=3, master_seed=1)
        assert np.array_equal(a, b)

    def test_version_mismatch(self, tmp_path):
        g = make_graph()
        m = small_model(g)
        p = tmp_path / "model.npz"
        old = LGNSDEModel.CHECKPOINT_VERSION
        try:
            LGNSDEModel.CHECKPOINT_VERSION = 99
            m.save(p)
        finally:
            LGNSDEModel.CHECKPOINT_VERSION = old
        with pytest.raises(ValueError, match="version"):
            LGNSDEModel.load(p)

    def test_non_finite_parameter_is_diverged(self, tmp_path):
        g = make_graph()
        m = small_model(g)
        m.W2.data[1, 0] = np.nan
        p = tmp_path / "model.npz"
        m.save(p)
        with pytest.raises(DivergedError, match=f"checkpoint {str(p)!r} has non-finite"):
            LGNSDEModel.load(p)


class TestTrainingLossWeight:
    def test_default_weight_matches_explicit(self):
        g = make_graph()
        m = small_model(g)
        path = BrownianPath(0, m.sde_config.steps, g.n, m.hidden)
        with ad.no_grad():
            a = float(m.training_loss(g, path).data)
            b = float(m.training_loss(
                g, path, kl_weight=1.0 / (g.n * m.hidden)).data)
        assert a == b

    def test_unit_weight_recovers_negative_elbo(self):
        g = make_graph()
        m = small_model(g)
        path = BrownianPath(0, m.sde_config.steps, g.n, m.hidden)
        with ad.no_grad():
            loss = float(m.training_loss(g, path, kl_weight=1.0).data)
            elbo = float(m.elbo(g, path).data)
        assert loss == -elbo  # negation is exact, so this holds bitwise


class TestDropoutFollowsRng:
    def test_without_rng_the_objective_is_deterministic(self):
        # dropout = 0.2 and no rng: dropout is off, the same as dropout = 0
        g = make_graph()
        m = small_model(g, dropout=0.2)
        off = small_model(g, dropout=0.0)
        path = BrownianPath(0, m.sde_config.steps, g.n, m.hidden)
        with ad.no_grad():
            elbo = float(m.elbo(g, path).data)
            loss = float(m.training_loss(g, path).data)
            assert loss == float(off.training_loss(g, path).data)
        assert np.isfinite(elbo) and np.isfinite(loss)

    def test_rng_turns_dropout_on(self):
        g = make_graph()
        m = small_model(g, dropout=0.2)
        path = BrownianPath(0, m.sde_config.steps, g.n, m.hidden)
        rng = np.random.Generator(np.random.PCG64(0))
        with ad.no_grad():
            a = float(m.training_loss(g, path).data)
            b = float(m.training_loss(g, path, rng=rng).data)
        assert np.isfinite(b) and a != b


class TestTapeMemory:
    def test_buffers_kept_per_solver_step(self):
        # the slope of one training step's traced peak in the solver steps,
        # in state-sized buffers per SRK step; a tape that keeps every op
        # output and a gradient for each holds about 64
        graph = make_splits(sbm_generate(3, 100, 0.05, 0.005, 16, 2.0, seed=0),
                            SplitSpec(seed=0, train_frac=0.3, val_frac=0.3))
        hidden = 32

        def step_peak(steps):
            model = LGNSDEModel(graph.d_in, graph.num_classes, hidden=hidden,
                                steps=steps, dropout=0.2, seed=0)
            path = BrownianPath(1, steps, graph.n, hidden)
            rng = np.random.Generator(np.random.PCG64(2))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                backward(model.training_loss(graph, path, rng=rng))
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        state_bytes = graph.n * hidden * 8
        assert (step_peak(16) - step_peak(8)) / 8 / state_bytes <= 12
