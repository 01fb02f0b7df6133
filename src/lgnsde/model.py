"""The latent graph-SDE classifier.

Pipeline: affine node-wise encoder -> latent SDE whose posterior drift is a
two-layer GCN with time appended as a constant channel -> affine decoder +
softmax at the final time. Prediction averages softmax outputs over
independent Brownian samples.
"""

import json

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .sde import BrownianPath, SDEConfig, integrate


def glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class LGNSDEModel:
    """Encoder + GCN posterior drift + constant/OU prior + affine decoder."""

    def __init__(self, d_in, num_classes, hidden=64, t0=0.0, t1=1.0, steps=16,
                 g=1.0, scheme="srk", dropout=0.2, mc_samples=20,
                 prior_mu=0.0, prior_ou_theta=None, seed=0):
        if hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {hidden}")
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must be in [0,1), got {dropout}")
        if mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1, got {mc_samples}")
        self.d_in = d_in
        self.num_classes = num_classes
        self.hidden = hidden
        self.sde_config = SDEConfig(t0=t0, t1=t1, steps=steps, g=g, scheme=scheme)
        self.dropout = dropout
        self.mc_samples = mc_samples
        self.prior_mu = float(prior_mu)
        self.prior_ou_theta = prior_ou_theta
        self.seed = seed
        rng = np.random.Generator(np.random.PCG64(seed))
        h = hidden
        self.W_enc = Tensor(glorot(rng, d_in, h), requires_grad=True)
        self.b_enc = Tensor(np.zeros(h), requires_grad=True)
        self.W1 = Tensor(glorot(rng, h + 1, h), requires_grad=True)
        self.b1 = Tensor(np.zeros(h), requires_grad=True)
        self.W2 = Tensor(glorot(rng, h, h), requires_grad=True)
        self.b2 = Tensor(np.zeros(h), requires_grad=True)
        self.W_dec = Tensor(glorot(rng, h, num_classes), requires_grad=True)
        self.b_dec = Tensor(np.zeros(num_classes), requires_grad=True)

    _param_names = ("W_enc", "b_enc", "W1", "b1", "W2", "b2", "W_dec", "b_dec")

    def parameters(self):
        return [getattr(self, name) for name in self._param_names]

    def encode(self, graph, training=False, rng=None):
        """H(t0) = dropout(X) W_enc + b_enc; node-wise, no graph mixing."""
        x = Tensor(graph.features)
        x = ad.dropout(x, self.dropout, training, rng)
        return ad.add(ad.matmul(x, self.W_enc), self.b_enc)

    def posterior_drift_fn(self, graph, training=False, rng=None):
        """Drift closure F(H, t) = A tanh(A [H, t] W1 + b1) W2 + b2.

        H is an (n, hidden) Tensor, or a batch of states stacked node-major
        as (n*B, hidden) (see ``autodiff.spmm``). Training, prediction and
        the verification harness all run this one closure.
        """
        adj = graph.norm_adj

        def drift(h, t):
            time_col = Tensor(np.full((h.data.shape[0], 1), float(t)))
            z = adj.matmul(ad.concat_cols(h, time_col))
            z = ad.tanh(ad.add(ad.matmul(z, self.W1), self.b1))
            z = ad.dropout(z, self.dropout, training, rng)
            z = adj.matmul(z)
            return ad.add(ad.matmul(z, self.W2), self.b2)

        return drift

    def prior_drift_fn(self):
        """Constant-mu drift, or -theta * H when an OU rate is configured."""
        mu = self.prior_mu
        theta = self.prior_ou_theta

        def drift(h, t):
            if theta is not None:
                return h * (-theta)
            return Tensor(np.full(h.data.shape, mu))

        return drift

    def decode(self, h):
        return ad.add(ad.matmul(h, self.W_dec), self.b_dec)

    def solve(self, graph, path, training=False, rng=None, h0=None):
        if h0 is None:
            h0 = self.encode(graph, training=training, rng=rng)
        return integrate(h0, self.posterior_drift_fn(graph, training, rng),
                         self.prior_drift_fn(), self.sde_config, path)

    def _train_nll(self, graph, path, training, rng):
        """Solve, decode H(t1); mean NLL over train nodes, KL, train count."""
        record = self.solve(graph, path, training=training, rng=rng)
        logits = self.decode(record.states[-1])
        nll = ad.masked_cross_entropy(logits, graph.labels, graph.train_mask)
        return nll, record.kl, int(np.count_nonzero(graph.train_mask))

    def elbo(self, graph, path, rng=None, training=True):
        """log p(Y | H(t1)) summed over train nodes, minus the pathwise KL."""
        nll, kl, n_train = self._train_nll(graph, path, training, rng)
        return ad.scale(nll, -float(n_train)) - kl

    def training_loss(self, graph, path, rng=None, kl_weight=None):
        """Objective minimized during training: summed NLL + weighted KL.

        The raw pathwise KL sums over every latent coordinate, which at
        small train-set sizes swamps the likelihood and drives the drift to
        zero; the default weight 1/(n*hidden) charges the KL per latent
        coordinate so the drift can actually use the graph.
        """
        if kl_weight is None:
            kl_weight = 1.0 / (graph.n * self.hidden)
        nll, kl, n_train = self._train_nll(graph, path, True, rng)
        return ad.scale(nll, float(n_train)) + ad.scale(kl, kl_weight)

    def predict(self, graph, mc_samples=None, master_seed=0, return_samples=False):
        """MC posterior predictive: average softmax over Brownian samples."""
        n_mc = self.mc_samples if mc_samples is None else mc_samples
        if n_mc < 1:
            raise ValueError("mc_samples must be >= 1")
        cfg = self.sde_config
        seeds = np.random.SeedSequence(master_seed).generate_state(n_mc)
        samples = []
        with no_grad():
            h0 = self.encode(graph, training=False)
            for s in seeds:
                path = BrownianPath(s, cfg.steps, graph.n, self.hidden,
                                    cfg.t0, cfg.t1)
                record = self.solve(graph, path, training=False, h0=h0)
                probs = ad.softmax_rows(self.decode(record.states[-1]))
                samples.append(probs.data)
        stacked = np.stack(samples)
        mean = stacked.mean(axis=0)
        if return_samples:
            return mean, stacked
        return mean

    # ------------------------------------------------------- checkpointing

    CHECKPOINT_VERSION = 1

    def config_dict(self):
        cfg = self.sde_config
        return {"d_in": self.d_in, "num_classes": self.num_classes,
                "hidden": self.hidden, "t0": cfg.t0, "t1": cfg.t1,
                "steps": cfg.steps, "g": cfg.g, "scheme": cfg.scheme,
                "dropout": self.dropout, "mc_samples": self.mc_samples,
                "prior_mu": self.prior_mu, "prior_ou_theta": self.prior_ou_theta,
                "seed": self.seed, "version": self.CHECKPOINT_VERSION}

    def save(self, path):
        arrays = {name: getattr(self, name).data for name in self._param_names}
        with open(path, "wb") as f:
            np.savez(f, config=np.frombuffer(
                json.dumps(self.config_dict(), sort_keys=True).encode(), dtype=np.uint8),
                **arrays)

    @classmethod
    def load(cls, path):
        with np.load(path) as z:
            cfg = json.loads(bytes(z["config"].tobytes()).decode())
            if cfg.pop("version") != cls.CHECKPOINT_VERSION:
                raise ValueError("unsupported checkpoint version")
            model = cls(**cfg)
            for name in cls._param_names:
                getattr(model, name).data = z[name].astype(np.float64)
        return model
