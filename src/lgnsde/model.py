"""The latent graph-SDE classifier.

Pipeline: affine node-wise encoder -> latent SDE whose posterior drift is a
two-layer GCN with time appended as a constant channel -> affine decoder +
softmax at the final time. Prediction averages softmax outputs over
independent Brownian samples.
"""

import itertools
import json
import zipfile

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_grad
from .sde import DivergedError, SDEConfig, drawn_ahead, integrate


def glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class LGNSDEModel:
    """Encoder + GCN posterior drift + constant/OU prior + affine decoder."""

    def __init__(self, d_in, num_classes, hidden=64, t1=1.0, steps=16,
                 g=1.0, scheme="srk", dropout=0.2, mc_samples=20,
                 prior_mu=0.0, prior_ou_theta=None, seed=0):
        if hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {hidden}")
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must be in [0,1), got {dropout}")
        if mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1, got {mc_samples}")
        theta = 0.0 if prior_ou_theta is None else prior_ou_theta
        if not np.isfinite([prior_mu, theta]).all():
            raise ValueError(f"prior_mu and prior_ou_theta must be finite, got "
                             f"{prior_mu}, {prior_ou_theta}")
        self.d_in = d_in
        self.num_classes = num_classes
        self.hidden = hidden
        self.sde_config = SDEConfig(t1=t1, steps=steps, g=g, scheme=scheme)
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

    def encode(self, graph, rng=None):
        """H(0) = dropout(X) W_enc + b_enc; node-wise, no graph mixing.

        Dropout applies only when an rng is passed (training). On the tape
        the encoder is one ``checkpoint`` node, so the dropped copy of X is
        drawn again in backward rather than kept."""
        def enc():
            x = ad.dropout(Tensor(graph.features), self.dropout, rng)
            return ad.add(ad.matmul(x, self.W_enc), self.b_enc)

        return ad.checkpoint(enc, (), rng)

    def posterior_drift_fn(self, graph, rng=None):
        """Drift closure F(H, t) = A tanh(A [H, t] W1 + b1) W2 + b2.

        H is an (n, hidden) Tensor, or a batch of states stacked node-major
        as (n*B, hidden) (see ``autodiff.spmm``). Training, prediction and
        the verification harness all run this one closure; dropout on the
        hidden layer applies only when an rng is passed. The closure is the
        plain drift: ``integrate``, given the same rng, makes each call one
        ``checkpoint`` node, so backward draws the same mask again.
        """
        adj = graph.norm_adj

        def drift(h, t):
            time_col = Tensor(np.full((h.data.shape[0], 1), float(t)))
            z = ad.spmm(adj, ad.concat_cols(h, time_col))
            z = ad.tanh(ad.add(ad.matmul(z, self.W1), self.b1))
            z = ad.dropout(z, self.dropout, rng)
            z = ad.spmm(adj, z)
            return ad.add(ad.matmul(z, self.W2), self.b2)

        return drift

    def prior_drift(self, h, t):
        """-theta * H when an OU rate is configured, else the constant mu as
        a zero-stride view shaped like H, which ``integrate`` keeps for free."""
        if self.prior_ou_theta is not None:
            return h * (-self.prior_ou_theta)
        return Tensor(np.broadcast_to(self.prior_mu, h.data.shape))

    def decode(self, h):
        return ad.add(ad.matmul(h, self.W_dec), self.b_dec)

    def training_loss(self, graph, path, rng=None, kl_weight=None):
        """Objective minimized during training: summed NLL + weighted KL.

        The NLL sums over the train nodes at H(t1). With an rng, dropout is
        on; without one the objective is deterministic given the path.
        The raw pathwise KL sums over every latent coordinate, which at
        small train-set sizes swamps the likelihood and drives the drift to
        zero; the default weight 1/(n*hidden) charges the KL per latent
        coordinate so the drift can actually use the graph.
        """
        if kl_weight is None:
            kl_weight = 1.0 / (graph.n * self.hidden)
        h, kl = integrate(self.encode(graph, rng), self.posterior_drift_fn(graph, rng),
                          self.prior_drift, self.sde_config, path, rng=rng)
        nll = ad.masked_cross_entropy(self.decode(h), graph.labels, graph.train_mask)
        n_train = int(np.count_nonzero(graph.train_mask))
        return ad.scale(nll, float(n_train)) + ad.scale(kl, kl_weight)

    def elbo(self, graph, path):
        """log p(Y | H(t1)) summed over train nodes, minus the pathwise KL,
        with dropout off; exactly -training_loss with kl_weight = 1."""
        return -self.training_loss(graph, path, kl_weight=1.0)

    def predict(self, graph, mc_samples=None, master_seed=0, return_samples=False):
        """MC posterior predictive: average softmax over Brownian samples.

        Sample i integrates the path ``BrownianPath(seeds[i], ...)`` would
        draw: ``drawn_ahead`` draws its (n, hidden) steps one at a time
        from one ``PCG64(seeds[i])`` on its helper thread, into a ring of
        `steps` buffers, one path long. The helper stays up to steps - 1
        draws ahead of the solver, so the next sample's steps go into the
        buffers the current one has finished with. A DivergedError names
        its ``sample`` i, and its message starts ``MC sample i: ``."""
        n_mc = self.mc_samples if mc_samples is None else mc_samples
        if n_mc < 1:
            raise ValueError("mc_samples must be >= 1")
        cfg = self.sde_config
        seeds = np.random.SeedSequence(master_seed).generate_state(n_mc)
        rngs = itertools.chain.from_iterable(
            itertools.repeat(np.random.Generator(np.random.PCG64(int(s))), cfg.steps)
            for s in seeds)
        samples = []
        with no_grad(), drawn_ahead(rngs, (graph.n, self.hidden), cfg.dt,
                                    buffers=cfg.steps) as stream:
            h0 = self.encode(graph)
            drift = self.posterior_drift_fn(graph)
            for i in range(n_mc):
                try:
                    h, _ = integrate(h0, drift, None, cfg, itertools.islice(stream, cfg.steps))
                except DivergedError as e:
                    e.sample = i
                    e.args = (f"MC sample {i}: {e}",)
                    raise
                samples.append(ad.softmax_rows(self.decode(h)).data)
        stacked = np.stack(samples)
        mean = stacked.mean(axis=0)
        if return_samples:
            return mean, stacked
        return mean

    # ------------------------------------------------------- checkpointing

    CHECKPOINT_VERSION = 2

    def config_dict(self):
        cfg = self.sde_config
        return {"d_in": self.d_in, "num_classes": self.num_classes, "hidden": self.hidden,
                "t1": cfg.t1, "steps": cfg.steps, "g": cfg.g, "scheme": cfg.scheme,
                "dropout": self.dropout, "mc_samples": self.mc_samples,
                "prior_mu": self.prior_mu, "prior_ou_theta": self.prior_ou_theta,
                "seed": self.seed, "version": self.CHECKPOINT_VERSION}

    def save(self, path):
        arrays = {name: getattr(self, name).data for name in self._param_names}
        with open(path, "wb") as f:
            np.savez(f, config=np.frombuffer(
                json.dumps(self.config_dict(), sort_keys=True).encode(), dtype=np.uint8),
                **arrays)

    # JSON types of the config_dict() entries but the version
    _config_types = dict(d_in=int, num_classes=int, hidden=int, steps=int,
                         mc_samples=int, seed=int, scheme=str, t1=(int, float),
                         g=(int, float), dropout=(int, float),
                         prior_mu=(int, float), prior_ou_theta=(int, float, type(None)))

    @classmethod
    def load(cls, path):
        """Rebuild a saved model. A file that does not load as one is a
        ValueError naming it; a non-finite parameter is a DivergedError."""
        try:
            with np.load(path) as z:
                cfg = json.loads(bytes(z["config"].tobytes()).decode())
                if not isinstance(cfg, dict) or cfg.pop("version", None) != cls.CHECKPOINT_VERSION:
                    raise ValueError("unsupported checkpoint version")
                types = cls._config_types
                bad = sorted(cfg.keys() ^ types.keys()) or [
                    k for k, want in types.items()
                    if isinstance(cfg[k], bool) or not isinstance(cfg[k], want)]
                if bad:
                    raise ValueError(f"checkpoint config has missing, unknown or "
                                     f"ill-typed keys: {', '.join(bad)}")
                model = cls(**cfg)
                for name in cls._param_names:
                    data, want = z[name], getattr(model, name).data.shape
                    if data.shape != want:
                        raise ValueError(f"{name} has shape {data.shape}, expected {want}")
                    getattr(model, name).data = data.astype(np.float64)
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as e:
            raise ValueError(f"unreadable checkpoint {str(path)!r}: {e}") from None
        if not all(np.isfinite(p.data).all() for p in model.parameters()):
            raise DivergedError(f"checkpoint {str(path)!r} has non-finite parameters")
        return model
