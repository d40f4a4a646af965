"""Hot-path kernel registry: one op, several tiers, one chokepoint.

The per-iteration numeric work of every execution backend funnels
through four ops — feature-row **gather**, transfer **quantize**, the
fused **gather_quantize**, and **segment_sum** aggregation. This
module gives each op a registry of interchangeable implementations
("tiers"), mirroring the backend registry
(:mod:`repro.runtime.backends`): a name, a lookup that lists what is
registered when it fails, and a :func:`register_kernel` hook for
out-of-tree variants.

Shipped tiers, in fallback order:

* ``"numba"`` — jitted loops, auto-registered only when :mod:`numba`
  imports (:mod:`repro.kernels.numba_tier`);
* ``"fast"`` — preallocated / fused / reduceat NumPy
  (:mod:`repro.kernels.fast`), the **default**;
* ``"reference"`` — the original implementations, kept as the
  conformance oracle (:mod:`repro.kernels.reference`).

Selection: the ``REPRO_KERNELS`` environment variable (read at each
dispatch, so worker processes inherit it under any start method), or
programmatically via :func:`set_kernel_tier` / the :func:`kernel_tier`
context manager. Requesting a ladder tier that is not registered
(``numba`` without numba) falls back down the ladder with a one-time
warning — the suite runs unchanged, just slower. Requesting an unknown
non-ladder tier is a loud :class:`~repro.errors.ConfigError`.

Every dispatch also feeds :data:`COUNTERS` (bytes gathered, payload
bytes quantized, pool hits/misses) — the per-iteration traffic
accounting the wall-clock bench reports next to its overlap column.

``docs/kernels.md`` is the author guide: calling convention, pooling
aliasing rules, and the exactness contract each tier owes the
reference.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..registry import Registry
from . import fast as _fast
from . import reference as _reference
from .pool import BufferPool
from .stats import (
    COUNTERS,
    KernelCounters,
    merge_counts,
    record,
    scoped_counters,
)

#: The registered ops (fixed: callers dispatch through the functions
#: below; tiers provide implementations per op).
OPS = ("gather", "quantize", "gather_quantize", "segment_sum")

#: Bytes per feature element on the PCIe link, per precision mode
#: (ground truth; ``repro.runtime.quantize`` re-exports it).
TRANSFER_BYTES = {"fp32": 4, "fp16": 2, "int8": 1}

#: Tier preference ladder: a request resolves to the first registered
#: tier at or below it.
TIER_LADDER = ("numba", "fast", "reference")

#: The tier served when ``REPRO_KERNELS`` is unset and no programmatic
#: override is active.
DEFAULT_TIER = "fast"

#: op -> tier -> implementation: a :class:`~repro.registry.Registry`
#: of per-op tier registries (the unified registry discipline shared
#: with backends and samplers), dict-compatible for legacy call sites.
#: Mutated only via :func:`register_kernel`.
KERNELS: Registry = Registry("kernel op")
for _op in OPS:
    KERNELS.register(_op, Registry("kernel tier"))
del _op

_requested: str | None = None          # programmatic override
_warned_fallbacks: set[tuple[str, str]] = set()


def register_kernel(op: str, tier: str, fn: Callable | None = None):
    """Register ``fn`` as op ``op``'s ``tier`` implementation.

    Usable directly or as a decorator (``@register_kernel(op, tier)``);
    returns the function unchanged. Re-registering a ``(op, tier)``
    pair replaces the implementation (how an out-of-tree tier would
    override a shipped one).
    """
    if op not in KERNELS:
        raise KERNELS.unknown_error(op)
    if not tier:
        raise ConfigError("kernel tier needs a non-empty name")

    def _do(f: Callable) -> Callable:
        KERNELS[op].register(tier, f)
        return f

    return _do if fn is None else _do(fn)


def available_tiers(op: str = "gather") -> tuple[str, ...]:
    """Registered tier names for ``op``, sorted (the unified
    ``available_*`` surface shared with backends and samplers)."""
    return KERNELS.get(op).available()


def requested_tier() -> str:
    """The tier selection in effect (override, env var, or default) —
    before fallback."""
    if _requested is not None:
        return _requested
    return os.environ.get("REPRO_KERNELS", "").strip() or DEFAULT_TIER


def set_kernel_tier(tier: str | None) -> str | None:
    """Set (or with ``None`` clear) the programmatic tier override.

    Returns the previous override so callers can restore it; prefer
    the :func:`kernel_tier` context manager.
    """
    global _requested
    if tier is not None:
        _check_requestable(tier)
    prev = _requested
    _requested = tier
    return prev


@contextmanager
def kernel_tier(tier: str):
    """Run a block under the given tier request (restores on exit)."""
    prev = set_kernel_tier(tier)
    try:
        yield
    finally:
        set_kernel_tier(prev)


def active_tier(op: str = "gather") -> str:
    """The tier a dispatch of ``op`` would actually use right now
    (after ladder fallback)."""
    tier, _ = _resolve(op)
    return tier


def _check_requestable(tier: str) -> None:
    known = set(TIER_LADDER)
    for impls in KERNELS.values():
        known.update(impls)
    if tier not in known:
        raise ConfigError(
            f"unknown kernel tier {tier!r}; known: {sorted(known)}")


def _resolve(op: str) -> tuple[str, Callable]:
    tier = requested_tier()
    impls = KERNELS[op]
    if tier not in TIER_LADDER:
        _check_requestable(tier)
        impl = impls.get(tier, None)
        if impl is None:
            raise ConfigError(
                f"kernel tier {tier!r} provides no {op!r}; registered "
                f"for {op!r}: {sorted(impls)}")
        return tier, impl
    for t in TIER_LADDER[TIER_LADDER.index(tier):]:
        impl = impls.get(t, None)
        if impl is not None:
            if t != tier and (tier, t) not in _warned_fallbacks:
                _warned_fallbacks.add((tier, t))
                warnings.warn(
                    f"kernel tier {tier!r} unavailable for {op!r}; "
                    f"falling back to {t!r}", RuntimeWarning,
                    stacklevel=3)
            return t, impl
    raise ConfigError(
        f"no kernel registered for {op!r} at or below tier {tier!r}; "
        f"registered: {sorted(impls)}")


def payload_bytes(mode: str, rows: int, cols: int) -> int:
    """Wire bytes one quantized batch occupies on the PCIe link:
    the payload at the mode's element width, plus one fp32 scale per
    row for the int8 format."""
    if mode not in TRANSFER_BYTES:
        raise ConfigError(
            f"unknown transfer precision {mode!r}; "
            f"expected one of {sorted(TRANSFER_BYTES)}")
    wire = rows * cols * TRANSFER_BYTES[mode]
    if mode == "int8":
        wire += rows * 4
    return wire


# ---------------------------------------------------------------------------
# Dispatchers (validate once, count, then call the resolved tier)
# ---------------------------------------------------------------------------

def _check_matrix(x: np.ndarray, what: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2:
        raise ConfigError(f"expected a 2-D {what} matrix")
    return x


def _check_mode(mode: str) -> None:
    if mode not in TRANSFER_BYTES:
        raise ConfigError(
            f"unknown transfer precision {mode!r}; "
            f"expected one of {sorted(TRANSFER_BYTES)}")


def gather_rows(features: np.ndarray, index: np.ndarray, *,
                out: np.ndarray | None = None,
                pool: BufferPool | None = None) -> np.ndarray:
    """Gather feature rows as float64 — the load-stage kernel.

    ``out`` (a float64 ``(len(index), features.shape[1])`` buffer) or
    ``pool`` make the fast tier allocation-free; see ``docs/kernels.md``
    for the aliasing rules pooling imposes on the caller.
    """
    features = _check_matrix(features, "feature")
    index = np.asarray(index)
    _, impl = _resolve("gather")
    result = impl(features, index, out=out, pool=pool)
    record(
        gather_calls=1, gather_rows=index.size,
        gather_src_bytes=index.size * features.shape[1]
        * features.itemsize,
        gather_out_bytes=result.nbytes)
    return result


def quantize(x: np.ndarray, mode: str, *,
             out: np.ndarray | None = None,
             pool: BufferPool | None = None) -> np.ndarray:
    """Transfer-precision round trip (dequantized result, input float
    dtype preserved) — the transfer-stage kernel."""
    _check_mode(mode)
    x = _check_matrix(x, "feature")
    _, impl = _resolve("quantize")
    result = impl(x, mode, out=out, pool=pool)
    record(
        quantize_calls=1, quantize_in_bytes=x.nbytes,
        payload_bytes=payload_bytes(mode, x.shape[0], x.shape[1]))
    return result


def gather_quantize(features: np.ndarray, index: np.ndarray,
                    mode: str, *,
                    out: np.ndarray | None = None,
                    pool: BufferPool | None = None) -> np.ndarray:
    """Fused gather + quantized-transfer round trip (float64 result) —
    the load+transfer chokepoint accelerator-bound batches take."""
    _check_mode(mode)
    features = _check_matrix(features, "feature")
    index = np.asarray(index)
    _, impl = _resolve("gather_quantize")
    result = impl(features, index, mode, out=out, pool=pool)
    record(
        fused_calls=1, gather_rows=index.size,
        gather_src_bytes=index.size * features.shape[1]
        * features.itemsize,
        gather_out_bytes=result.nbytes,
        payload_bytes=payload_bytes(mode, index.size,
                                    features.shape[1]))
    return result


def segment_sum(src: np.ndarray, dst: np.ndarray, h_src: np.ndarray,
                num_dst: int,
                edge_weights: np.ndarray | None = None) -> np.ndarray:
    """Segment-sum aggregation over an edge list (float64 result).

    The FPGA-kernel-equivalent path of paper Eq. 1; the production
    model layers aggregate through scipy spmm instead, so tiers here
    may reorder the accumulation (tolerance-equivalent).
    """
    src = np.asarray(src)
    dst = np.asarray(dst)
    h_src = _check_matrix(h_src, "message")
    if edge_weights is not None:
        edge_weights = np.asarray(edge_weights, dtype=np.float64)
    _, impl = _resolve("segment_sum")
    result = impl(src, dst, h_src, int(num_dst),
                  edge_weights=edge_weights)
    record(segment_sum_calls=1,
                 segment_sum_edges=src.size)
    return result


# ---------------------------------------------------------------------------
# Shipped registrations
# ---------------------------------------------------------------------------

register_kernel("gather", "reference", _reference.gather)
register_kernel("quantize", "reference", _reference.quantize)
register_kernel("gather_quantize", "reference",
                _reference.gather_quantize)
register_kernel("segment_sum", "reference", _reference.segment_sum)

register_kernel("gather", "fast", _fast.gather)
register_kernel("quantize", "fast", _fast.quantize)
register_kernel("gather_quantize", "fast", _fast.gather_quantize)
register_kernel("segment_sum", "fast", _fast.segment_sum)

from . import numba_tier as _numba_tier  # noqa: E402  (needs `fast`)

if _numba_tier.HAVE_NUMBA:  # pragma: no cover - CI numba leg
    register_kernel("gather", "numba", _numba_tier.gather)
    register_kernel("quantize", "numba", _numba_tier.quantize)
    register_kernel("gather_quantize", "numba",
                    _numba_tier.gather_quantize)
    register_kernel("segment_sum", "numba", _numba_tier.segment_sum)

__all__ = [
    "OPS",
    "TIER_LADDER",
    "DEFAULT_TIER",
    "TRANSFER_BYTES",
    "KERNELS",
    "register_kernel",
    "available_tiers",
    "requested_tier",
    "active_tier",
    "set_kernel_tier",
    "kernel_tier",
    "payload_bytes",
    "gather_rows",
    "quantize",
    "gather_quantize",
    "segment_sum",
    "BufferPool",
    "COUNTERS",
    "KernelCounters",
    "record",
    "scoped_counters",
    "merge_counts",
]
