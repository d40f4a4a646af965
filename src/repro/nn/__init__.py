"""From-scratch NumPy GNN core (paper §II-A, aggregate-update paradigm).

Implements the two models the paper evaluates — GCN [23] and GraphSAGE [2]
— with exact manual backward passes. Forward/backward operate on the
:class:`~repro.sampling.base.MiniBatch` block structure, so the same model
code runs under neighbor sampling, GraphSAINT, or full-batch.

The optimizations HyScale-GNN applies never alter these semantics (paper
§IV); the equivalence tests in ``tests/integration`` rely on that.
"""

from .activations import relu, relu_grad
from .aggregators import (
    SparseAggregator,
    gcn_edge_weights,
    mean_edge_weights,
)
from .init import xavier_uniform, zeros_init
from .linear import Linear
from .layers import GCNLayer, SAGELayer
from .loss import softmax_cross_entropy
from .models import GNNModel, build_model
from .optim import SGD, Adam, Optimizer
from .gradcheck import numeric_gradient, check_model_gradients

__all__ = [
    "relu",
    "relu_grad",
    "SparseAggregator",
    "gcn_edge_weights",
    "mean_edge_weights",
    "xavier_uniform",
    "zeros_init",
    "Linear",
    "GCNLayer",
    "SAGELayer",
    "softmax_cross_entropy",
    "GNNModel",
    "build_model",
    "Optimizer",
    "SGD",
    "Adam",
    "numeric_gradient",
    "check_model_gradients",
]
