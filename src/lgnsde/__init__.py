"""Latent graph neural SDEs: uncertainty-aware node classification with a
GCN-parameterized posterior drift, plus an empirical verification harness
for the model's variance and perturbation bounds."""

from .autodiff import Adam, SparseMatrix, Tensor, backward, no_grad
from .graphdata import (Graph, SplitSpec, build_graph, load_bundle,
                        load_cora_raw, make_splits, normalized_adjacency,
                        ood_view, save_bundle, sbm_generate)
from .metrics import (EvalReport, aurc, binary_auroc, entropy_rows, evaluate,
                      micro_auroc, ood_evaluate)
from .model import LGNSDEModel
from .sde import (BrownianPath, DivergedError, SDEConfig, em_step, integrate,
                  srk_step)
from .train import RunLog, test_report, train_model
from .verify import (elbo_gradient_check, estimate_lipschitz, lemma1_check,
                     lemma2_check, resnet_equivalence)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
