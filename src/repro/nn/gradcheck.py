"""Finite-difference gradient verification.

Backward passes in this library are hand-derived; :func:`numeric_gradient`
and :func:`check_model_gradients` verify them against central differences.
These run in the test suite on small batches so every layer's math is
checked end to end.
"""

from __future__ import annotations

import copy
from typing import Callable

import numpy as np

from ..sampling.base import MiniBatch
from .loss import softmax_cross_entropy
from .models import GNNModel


def numeric_gradient(f: Callable[[], float], array: np.ndarray,
                     eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``array``.

    ``array`` is perturbed in place and restored; ``f`` must re-read it on
    each call (true for closures over model parameters).
    """
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def float64_copy(model: GNNModel) -> GNNModel:
    """A deep copy of ``model`` with parameters and gradients up-cast to
    float64. Layers compute in their parameters' dtype, so the copy runs
    in double precision — for checks whose subject is the math, not the
    rounding. The original is untouched."""
    model = copy.deepcopy(model)
    for layer in model.layers:
        for name in ("W", "b", "dW", "db"):
            setattr(layer.linear, name,
                    getattr(layer.linear, name).astype(np.float64))
    return model


def check_model_gradients(model: GNNModel, minibatch: MiniBatch,
                          x0: np.ndarray, labels: np.ndarray,
                          global_degrees: np.ndarray | None = None,
                          rtol: float = 1e-4, atol: float = 1e-6,
                          max_entries: int = 64) -> float:
    """Verify analytic parameter gradients against finite differences.

    Checks up to ``max_entries`` randomly chosen scalar entries of every
    parameter tensor (full checks are O(P) loss evaluations). Returns the
    worst relative error found; raises AssertionError past tolerance.

    The differences run on :func:`float64_copy` of ``model`` fed a
    float64 ``x0`` (a float32 loss cannot resolve ``eps``); the caller's
    model is left untouched.
    """
    model = float64_copy(model)
    x0 = np.asarray(x0, dtype=np.float64)

    def loss_fn() -> float:
        logits = model.predict(minibatch, x0, global_degrees)
        loss, _ = softmax_cross_entropy(logits, labels)
        return loss

    # Analytic gradients.
    model.zero_grad()
    logits = model.forward(minibatch, x0, global_degrees)
    _, dlogits = softmax_cross_entropy(logits, labels)
    model.backward(dlogits)
    analytic = {name: g.copy() for name, g in model.gradients()}

    rng = np.random.default_rng(0)
    worst = 0.0
    for name, p in model.parameters():
        flat = p.ravel()
        n_check = min(max_entries, flat.size)
        idx = rng.choice(flat.size, size=n_check, replace=False)
        eps = 1e-6
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_fn()
            flat[i] = orig - eps
            f_minus = loss_fn()
            flat[i] = orig
            num = (f_plus - f_minus) / (2.0 * eps)
            ana = analytic[name].ravel()[i]
            denom = max(abs(num), abs(ana), atol)
            rel = abs(num - ana) / denom
            worst = max(worst, rel)
            assert rel <= rtol or abs(num - ana) <= atol, (
                f"gradient mismatch at {name}[{i}]: "
                f"numeric={num:.3e} analytic={ana:.3e} rel={rel:.3e}")
    return worst
