"""GNN model container: layer stack + minibatch-driven forward/backward.

A :class:`GNNModel` owns L layers and evaluates them over a
:class:`~repro.sampling.base.MiniBatch`. Layer ``l`` consumes the features
of ``V^{l-1}`` and produces features for ``V^l``; because destination node
lists are prefixes of source lists, the output of layer ``l`` *is* the
input of layer ``l+1`` (no re-gather).

Gradient synchronization (the paper's Synchronizer) works on the flat
parameter/gradient vectors exposed by :meth:`get_flat_grads` /
:meth:`set_flat_params`; the layout is deterministic (layer order, W then
b), so replicas built from the same seed exchange buffers directly — the
same buffer-not-pickle discipline the mpi4py guide recommends.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import layer_dims
from ..errors import ConfigError, ShapeError
from ..sampling.base import MiniBatch
from .layers import GCNLayer, LayerCache, SAGELayer


class GNNModel:
    """A stack of GCN or SAGE layers with manual backprop.

    Parameters
    ----------
    layers:
        Layer instances, input side first.
    """

    def __init__(self, layers: Sequence) -> None:
        if not layers:
            raise ConfigError("model needs at least one layer")
        self.layers = list(layers)
        self._caches: list[LayerCache] | None = None

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, minibatch: MiniBatch, x0: np.ndarray,
                global_degrees: np.ndarray | None = None,
                row_scales: np.ndarray | None = None) -> np.ndarray:
        """Run forward propagation; returns logits for the batch targets.

        Keeps the per-layer intermediates for the :meth:`backward` that
        follows; forward-only callers use :meth:`predict`.

        Parameters
        ----------
        minibatch:
            The sampled computational graph (L blocks).
        x0:
            ``(|V^0|, f^0)`` input features for ``minibatch.input_nodes``.
        global_degrees:
            Full-graph degree array (required by GCN normalization; SAGE
            ignores it).
        row_scales:
            One scale per row of ``x0`` when ``x0`` holds int8 codes:
            the input layer folds them (see :mod:`repro.nn.layers`), so
            the logits are those of ``x0 * row_scales`` up to the
            aggregation's rounding.
        """
        # Cleared first: a forward that raises must not leave an earlier
        # batch's caches for the next backward to consume.
        self._caches = None
        h, self._caches = self._propagate(minibatch, x0, global_degrees,
                                          row_scales)
        return h

    def predict(self, minibatch: MiniBatch, x0: np.ndarray,
                global_degrees: np.ndarray | None = None) -> np.ndarray:
        """Logits bit-identical to :meth:`forward`'s, keeping no state.

        The inference entry point (serving, evaluation, gradcheck's loss
        closure): no caches are retained, so the batch's features and
        activations are released on return and a pending
        :meth:`backward` is unaffected.
        """
        return self._propagate(minibatch, x0, global_degrees)[0]

    def _propagate(self, minibatch: MiniBatch, x0: np.ndarray,
                   global_degrees: np.ndarray | None,
                   row_scales: np.ndarray | None = None
                   ) -> tuple[np.ndarray, list[LayerCache]]:
        """The layer loop: ``(logits, per-layer caches)``."""
        if len(minibatch.blocks) != len(self.layers):
            raise ShapeError(
                f"model has {len(self.layers)} layers but batch has "
                f"{len(minibatch.blocks)} blocks")
        if x0.shape[0] != minibatch.input_nodes.size:
            raise ShapeError("x0 rows must match |V^0|")
        dtype = self.layers[0].linear.W.dtype
        h = np.asarray(x0, dtype=dtype)
        if row_scales is not None:
            row_scales = np.asarray(row_scales, dtype=dtype).reshape(-1, 1)
        caches: list[LayerCache] = []
        for l, (layer, block) in enumerate(zip(self.layers,
                                               minibatch.blocks)):
            agg = layer.build_aggregator(
                block,
                src_global_ids=minibatch.node_ids[l],
                dst_global_ids=minibatch.node_ids[l + 1],
                global_degrees=global_degrees)
            h, cache = layer.forward(agg, h, row_scales)
            row_scales = None      # the input layer folds them
            caches.append(cache)
        return h, caches

    def backward(self, grad_logits: np.ndarray) -> None:
        """Run backward propagation; accumulates parameter gradients.

        Back-propagates only what the optimizer consumes: layers
        ``L..2`` pass the gradient down, the input-side layer stops at
        its ``dW``/``db``. The gradient w.r.t. the input features — one
        ``dz @ W.T`` GEMM and one transposed spmm into a
        ``(|V^0|, f^0)`` matrix — is never computed, which is the
        structure of the performance model's backward term (paper
        Eq. 10: ``t_upd^1 + Σ_{l>=2} (t_agg^l ⊕ t_upd^l)``, see
        :mod:`repro.hw.cost_models`). Call a layer's ``backward``
        directly when the input gradient is wanted.
        """
        if self._caches is None:
            raise ShapeError("backward called before forward")
        grad = np.asarray(grad_logits, dtype=self.layers[-1].linear.W.dtype)
        for l in reversed(range(len(self.layers))):
            grad = self.layers[l].backward(self._caches[l], grad,
                                           input_grad=l > 0)
        self._caches = None

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Named parameter arrays (mutable references, layer order)."""
        out = []
        for i, layer in enumerate(self.layers):
            out.append((f"layer{i}.W", layer.linear.W))
            out.append((f"layer{i}.b", layer.linear.b))
        return out

    def gradients(self) -> list[tuple[str, np.ndarray]]:
        """Named gradient arrays aligned with :meth:`parameters`."""
        out = []
        for i, layer in enumerate(self.layers):
            out.append((f"layer{i}.W", layer.linear.dW))
            out.append((f"layer{i}.b", layer.linear.db))
        return out

    def zero_grad(self) -> None:
        """Clear all accumulated gradients."""
        for layer in self.layers:
            layer.zero_grad()

    @property
    def num_params(self) -> int:
        """Total scalar parameter count (the paper's "model size")."""
        return sum(layer.num_params for layer in self.layers)

    # -- flat views for all-reduce --------------------------------------
    def get_flat_params(self) -> np.ndarray:
        """Copy all parameters into one contiguous vector (their dtype)."""
        return np.concatenate([p.ravel() for _, p in self.parameters()])

    def set_flat_params(self, flat: np.ndarray) -> None:
        """Load parameters from a flat vector (inverse of get_flat_params).

        Writes in place so optimizer state keeps referencing the arrays.
        """
        flat = np.asarray(flat)
        if flat.size != self.num_params:
            raise ShapeError("flat vector size mismatch")
        offset = 0
        for _, p in self.parameters():
            p[...] = flat[offset:offset + p.size].reshape(p.shape)
            offset += p.size

    def get_flat_grads(self) -> np.ndarray:
        """Copy all gradients into one contiguous vector (their dtype)."""
        return np.concatenate([g.ravel() for _, g in self.gradients()])

    def set_flat_grads(self, flat: np.ndarray) -> None:
        """Load gradients from a flat vector (used after all-reduce)."""
        flat = np.asarray(flat)
        if flat.size != self.num_params:
            raise ShapeError("flat vector size mismatch")
        offset = 0
        for _, g in self.gradients():
            g[...] = flat[offset:offset + g.size].reshape(g.shape)
            offset += g.size


def build_model(name: str, dims: Sequence[int], seed: int = 0) -> GNNModel:
    """Construct a GCN or GraphSAGE model.

    Parameters
    ----------
    name:
        ``"gcn"`` or ``"sage"``.
    dims:
        Feature lengths ``(f^0, ..., f^L)`` — see
        :func:`repro.config.layer_dims`.
    seed:
        Initializer seed. Two calls with identical arguments produce
        bit-identical models (required for multi-trainer replicas).

    The final layer has no activation (logits feed softmax loss); all
    others use ReLU, matching the paper's model definitions.
    """
    if len(dims) < 2:
        raise ConfigError("dims must contain at least (f0, f1)")
    cls = {"gcn": GCNLayer, "sage": SAGELayer}.get(name)
    if cls is None:
        raise ConfigError(f"unknown model {name!r}")
    rng = np.random.default_rng(seed)
    layers = []
    num_layers = len(dims) - 1
    for l in range(num_layers):
        layers.append(cls(dims[l], dims[l + 1], rng,
                          activation=(l < num_layers - 1)))
    return GNNModel(layers)


def model_size_bytes(dims: Sequence[int], model: str = "gcn",
                     s_feat: int = 4) -> int:
    """Model size in bytes (paper Eq. 13 numerator: Σ f^{l-1} f^l S_feat).

    SAGE doubles the input dimension of every weight matrix (one row
    block for the self rows, one for the neighbor mean).
    Biases are excluded, matching the paper's formula.
    """
    mult = 2 if model == "sage" else 1
    return sum(mult * dims[l - 1] * dims[l] * s_feat
               for l in range(1, len(dims)))
