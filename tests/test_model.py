import threading
import tracemalloc

import numpy as np
import pytest

import lgnsde.autodiff as ad
from lgnsde.autodiff import Tensor, backward
from lgnsde.graphdata import SplitSpec, build_graph, make_splits, sbm_generate
from lgnsde.model import LGNSDEModel
from lgnsde.sde import BrownianPath, DivergedError, integrate
from lgnsde.train import train_model
from tests.test_autodiff import float_mask_dropout, scipy_csr


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
        expect = scipy_csr(g.norm_adj).toarray() @ (np.tanh(0.3) * np.ones((g.n, m.hidden))) \
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
        # each sample integrates BrownianPath(seed_i), one after another; at
        # steps = 1 the helper draws the next sample's only step while the
        # current one integrates
        g = make_graph()
        seeds = np.random.SeedSequence(11).generate_state(5)
        for steps in (5, 1):  # sqrt(dt) is inexact at 5
            m = small_model(g, scheme=scheme, steps=steps)
            cfg = m.sde_config
            ref = []
            with ad.no_grad():
                h0, drift = m.encode(g), m.posterior_drift_fn(g)
                for s in seeds:
                    path = BrownianPath(s, cfg.steps, g.n, m.hidden, cfg.t0, cfg.t1)
                    h, _ = integrate(h0, drift, None, cfg, path)
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

    def test_divergence_names_its_sample(self):
        # the drift overflows in the first call of sample 1, step 1 (8 SRK
        # drift calls a sample); integrate names the step, predict the sample
        g = make_graph()
        m = small_model(g)
        drift_fn = m.posterior_drift_fn
        calls = []

        def failing(graph, rng=None):
            drift = drift_fn(graph, rng)

            def overflowing(h, t):
                calls.append(t)
                return h * 1e308 * 1e308 if len(calls) == 11 else drift(h, t)

            return overflowing

        m.posterior_drift_fn = failing
        with np.errstate(all="raise"), pytest.raises(
                DivergedError, match=r"^MC sample 1: integration diverged at step 1 "
                                     r"\(t = 0.25, max \|H\| = \S+\): overflow") as e:
            m.predict(g, mc_samples=3)
        assert (e.value.sample, e.value.step, e.value.t) == (1, 1, 0.25)
        assert isinstance(e.value.max_abs_h, float) and np.isfinite(e.value.max_abs_h)

    def test_decoder_overflow_names_its_sample(self):
        # every solve is finite; the decoder product of sample 0 overflows
        g = make_graph()
        m = small_model(g)
        m.W_dec.data = np.where(m.W_dec.data < 0, -1e308, 1e308)
        with np.errstate(all="raise"), pytest.raises(
                DivergedError, match=r"^MC sample 0: overflow encountered in matmul$") as e:
            m.predict(g, mc_samples=3)
        assert e.value.sample == 0
        assert (e.value.step, e.value.t, e.value.max_abs_h) == (None, None, None)

    def test_noise_peak_does_not_grow_with_steps(self):
        # the noise takes turns in a pair of step buffers, so 56 more steps
        # add less than one state-sized buffer to the traced peak (a ring
        # of `steps` buffers added 56)
        graph = sbm_generate(3, 100, 0.05, 0.005, 16, 2.0, seed=0)
        hidden = 32

        def peak(steps):
            m = LGNSDEModel(graph.d_in, graph.num_classes, hidden=hidden, steps=steps, seed=0)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                m.predict(graph, mc_samples=3)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(64) <= peak(8) + graph.n * hidden * 8


class TestBuiltWithoutTape:
    def test_model_built_in_no_grad_trains(self):
        g = make_graph()
        with ad.no_grad():
            m = small_model(g)
        initial = [p.data.copy() for p in m.parameters()]
        log = train_model(m, g, epochs=1, patience=1, val_mc=1)
        assert len(log.epochs) == 1 and not log.diverged
        for p, before in zip(m.parameters(), initial):
            assert p.grad is not None and np.isfinite(p.grad).all()
            assert not np.array_equal(p.data, before)


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

    def test_t0_is_no_parameter(self):
        # every solve starts at 0; t0 is neither a constructor argument nor
        # a checkpoint key
        with pytest.raises(TypeError, match="t0"):
            LGNSDEModel(d_in=4, num_classes=3, t0=0.0)
        assert "t0" not in LGNSDEModel(d_in=4, num_classes=3).config_dict()

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


def full_unroll(fn, inputs, rng=None):
    """``ad.checkpoint`` without the recompute: every op stays on the tape."""
    return fn(*inputs)


class TestRecompute:
    # every drift call and the encoder are checkpoint nodes; recomputing
    # them in backward must give the full unroll's gradients bit for bit
    graph = make_splits(sbm_generate(3, 12, 0.3, 0.03, 6, 2.0, seed=0),
                        SplitSpec(seed=0, train_frac=0.3, val_frac=0.3))

    def run(self, scheme, ou):
        graph = self.graph

        def model():
            return LGNSDEModel(graph.d_in, graph.num_classes, hidden=8, steps=5,
                               scheme=scheme, dropout=0.2, prior_ou_theta=ou, seed=0)

        path = BrownianPath(1, 5, graph.n, 8)
        rng = np.random.Generator(np.random.PCG64(2))
        m = model()
        loss = m.training_loss(graph, path, rng=rng)
        forward_state = rng.bit_generator.state
        backward(loss)
        assert rng.bit_generator.state == forward_state
        e = model()
        backward(e.elbo(graph, path))
        t = model()
        log = train_model(t, graph, epochs=4, patience=4, seed=0)
        arrays = ([p.grad for p in m.parameters()] + [p.grad for p in e.parameters()]
                  + [p.data for p in t.parameters()])
        return float(loss.data), arrays, log.epochs, forward_state

    @pytest.mark.parametrize("ou", [None, 0.5])
    @pytest.mark.parametrize("scheme", ["srk", "em"])
    def test_equals_full_unroll(self, monkeypatch, scheme, ou):
        loss, arrays, epochs, state = self.run(scheme, ou)
        monkeypatch.setattr(ad, "checkpoint", full_unroll)
        ref_loss, ref_arrays, ref_epochs, ref_state = self.run(scheme, ou)
        assert loss == ref_loss and epochs == ref_epochs and state == ref_state
        assert all(np.array_equal(a, b) for a, b in zip(arrays, ref_arrays))

    @staticmethod
    def checkpoint_calls(monkeypatch, ou):
        """(inputs, output) of every checkpoint call in one training step,
        and the step's loss."""
        calls = []
        real = ad.checkpoint

        def spy(fn, inputs, rng=None):
            out = real(fn, inputs, rng)
            calls.append((inputs, out))
            return out

        g = make_graph()
        m = small_model(g, dropout=0.2, steps=3, prior_mu=0.3, prior_ou_theta=ou)
        monkeypatch.setattr(ad, "checkpoint", spy)
        loss = m.training_loss(g, BrownianPath(0, 3, g.n, 3),
                               rng=np.random.Generator(np.random.PCG64(0)))
        return calls, loss

    @staticmethod
    def recompute_node(*outs):
        """The recompute node of one checkpoint call, checking that each
        output has a node of its own whose one parent is that node."""
        (node,) = outs[0]._node.parents
        for out in outs:
            assert out._node is not node and out._node.parents == (node,)
        return node

    def test_step_and_encoder_are_single_nodes(self, monkeypatch):
        # the encoder reads no input, so its recompute node has no parent.
        # Each solver step is one recompute node whose one parent is the
        # node of H_j, the state the step before returned: the increment is
        # drawn inside the step and the constant prior made there. The
        # step's outputs, H_{j+1} and its KL term, each get a node on it
        ((inputs, h), *steps), _ = self.checkpoint_calls(monkeypatch, None)
        assert inputs == () and self.recompute_node(h).parents == ()
        assert len(steps) == 3
        for inputs, (h_next, kl_j) in steps:
            assert len(inputs) == 1 and inputs[0] is h
            assert self.recompute_node(h_next, kl_j).parents == (h._node,)
            assert kl_j.data.shape == ()
            h = h_next

    def test_ou_prior_is_recomputed_in_the_step(self, monkeypatch):
        # the OU prior -theta H_j is made inside the step's node, whose one
        # parent stays H_j's node: off the tape in the forward, and again
        # on the nested tape of the step's recompute, from a fresh leaf
        # holding H_j's array, which gets its gradient there
        priors = []
        real = LGNSDEModel.prior_drift

        def spy(model, h, t):
            out = real(model, h, t)
            priors.append((h, out))
            return out

        monkeypatch.setattr(LGNSDEModel, "prior_drift", spy)
        ((_, h0), *steps), loss = self.checkpoint_calls(monkeypatch, 0.5)
        states = [h0] + [h for _, (h, _) in steps[:-1]]
        for (_, (h_next, kl_j)), state in zip(steps, states):
            assert self.recompute_node(h_next, kl_j).parents == (state._node,)
        assert len(priors) == 3
        for (h, prior), state in zip(priors, states):
            assert h is state and prior._node is None
            assert np.array_equal(prior.data, state.data * -0.5)
        backward(loss)
        # backward recomputes the newest step first
        recomputed = priors[3:][::-1]
        assert len(recomputed) == 3
        for (leaf, again), (_, prior), state in zip(recomputed, priors, states):
            assert leaf is not state and leaf.data is state.data
            assert leaf.grad is not None and again._node is not None
            assert np.array_equal(again.data, prior.data)


class TestTapeMemory:
    graph = make_splits(sbm_generate(3, 100, 0.05, 0.005, 16, 2.0, seed=0),
                        SplitSpec(seed=0, train_frac=0.3, val_frac=0.3))

    def buffers_per_step(self, scheme, ou=None):
        """The slope of one training step's traced peak in the solver steps,
        in state-sized buffers per step."""
        graph, hidden = self.graph, 32

        def step_peak(steps):
            model = LGNSDEModel(graph.d_in, graph.num_classes, hidden=hidden,
                                steps=steps, dropout=0.2, scheme=scheme,
                                prior_ou_theta=ou, seed=0)
            path = BrownianPath(1, steps, graph.n, hidden)
            rng = np.random.Generator(np.random.PCG64(2))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                backward(model.training_loss(graph, path, rng=rng))
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        return (step_peak(16) - step_peak(8)) / 8 / (graph.n * hidden * 8)

    def test_buffers_kept_per_solver_step(self):
        # an SRK step keeps only H_j (1.07 measured): the second drift
        # call's input, the KL integrand and the increment are recomputed
        # in backward (2.15 when the second input was kept, 3.18 with the
        # KL integrand too). A tape that keeps every op output and a
        # gradient for each holds about 64
        assert self.buffers_per_step("srk") <= 1.2

    def test_buffers_kept_per_em_step(self):
        # an EM step keeps only H_j (1.03 measured; 2.04 with the KL integrand)
        assert self.buffers_per_step("em") <= 1.2

    def test_buffers_kept_per_ou_solver_step(self):
        # the OU prior -theta H_j is recomputed inside the step's node, so
        # it keeps nothing (1.03 measured; 3.09 when the prior was an input
        # of the step's first drift call)
        assert self.buffers_per_step("srk", ou=0.5) <= 1.2

    def test_buffers_kept_per_ou_em_step(self):
        # H_j alone (1.03 measured; 2.06 with the prior kept)
        assert self.buffers_per_step("em", ou=0.5) <= 1.2

    def test_step_peak_below_whole_path_and_float_masks(self, monkeypatch):
        # the same training step with what the tape held before: the whole
        # path drawn up front, a float dropout mask per drift call and every
        # drift's intermediates (no recompute). The gradients are bitwise
        # equal, and the peak falls by at least the whole path
        graph, hidden, steps = self.graph, 32, 16

        def step(whole_path):
            model = LGNSDEModel(graph.d_in, graph.num_classes, hidden=hidden,
                                steps=steps, dropout=0.2, seed=0)
            path = BrownianPath(1, steps, graph.n, hidden)
            rng = np.random.Generator(np.random.PCG64(2))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                noise = np.stack(list(path)) if whole_path else path
                backward(model.training_loss(graph, noise, rng=rng))
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            return peak, [p.grad for p in model.parameters()]

        peak, grads = step(whole_path=False)
        monkeypatch.setattr(ad, "dropout", float_mask_dropout)
        monkeypatch.setattr(ad, "checkpoint", full_unroll)
        before, reference = step(whole_path=True)
        assert all(np.array_equal(a, b) for a, b in zip(grads, reference))
        assert peak <= before - steps * graph.n * hidden * 8
