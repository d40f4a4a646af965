"""Pluggable execution backends for the shared runtime core.

A backend realizes the training protocol of a
:class:`~repro.runtime.core.TrainingSession` on a concrete execution
substrate. Seven registry names ship: three in-process executors
(``virtual`` — the modelled-hardware reference; ``threaded``;
``pipelined``) and four **presets** of the one process-plane driver
(:class:`~.process.ProcessBackend`: ``process``, ``process_sampling``,
``process_pipelined``, ``sharded``). All consume the same session and
work source, and ``tests/integration/backend_conformance.py`` holds
every registered backend (third-party ones included) to the tier its
:attr:`~ExecutionBackend.conformance_tier` declares. What each plane
does, the driver's seams, the worker snapshot and how to register a
new preset: ``docs/backends.md``.
"""

from __future__ import annotations

from ...errors import ConfigError
from ...registry import Registry
from .base import ExecutionBackend
from .options import (
    BackendOptions,
    LiveOptions,
    OverlapOptions,
    ProcessOptions,
    ProcessOverlapOptions,
    ShardedOptions,
    ThreadedOptions,
    build_backend,
    resolve_options,
    validate_options_cls,
)
from .report import RunReport, StageStats
from .overlap import LookaheadDealer, adaptive_depth
from .virtual import EpochReport, VirtualTimeBackend
from .threaded import ThreadedBackend
from .pipelined import PipelinedBackend
from .process import (
    ProcessBackend,
    ProcessPipelinedBackend,
    ProcessPoolBackend,
    ProcessSamplingBackend,
)
from .sharded import ShardedBackend, ShardPlan

#: name -> backend class. A :class:`~repro.registry.Registry` (the
#: unified registry discipline), dict-compatible for legacy call sites;
#: mutated only through :func:`register_backend`.
BACKENDS: Registry = Registry("execution backend")


def register_backend(cls: type[ExecutionBackend]
                     ) -> type[ExecutionBackend]:
    """Register an execution backend under ``cls.name``.

    Usable as a class decorator; returns ``cls`` unchanged. Validates
    the class contract eagerly: a non-empty ``name`` and an
    ``options_cls`` declaration whose every field the constructor
    accepts (see :mod:`~repro.runtime.backends.options`), so knob
    drift fails at registration rather than first use.
    """
    if not getattr(cls, "name", ""):
        raise ConfigError(
            f"backend class needs a non-empty `name`; registered: "
            f"{sorted(BACKENDS)}")
    validate_options_cls(cls)
    BACKENDS.register(cls.name, cls)
    return cls


def get_backend(name: str) -> type[ExecutionBackend]:
    """Look up a backend class by registry key (unknown names raise
    :class:`~repro.errors.ConfigError` listing the registry)."""
    return BACKENDS.get(name)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return BACKENDS.available()


register_backend(VirtualTimeBackend)
register_backend(ThreadedBackend)
register_backend(ProcessPoolBackend)
register_backend(ProcessSamplingBackend)
register_backend(PipelinedBackend)
register_backend(ProcessPipelinedBackend)
register_backend(ShardedBackend)

__all__ = [
    "ExecutionBackend",
    "BackendOptions",
    "LiveOptions",
    "ThreadedOptions",
    "ProcessOptions",
    "OverlapOptions",
    "ProcessOverlapOptions",
    "ShardedOptions",
    "build_backend",
    "resolve_options",
    "VirtualTimeBackend",
    "ThreadedBackend",
    "ProcessPoolBackend",
    "ProcessSamplingBackend",
    "PipelinedBackend",
    "ProcessPipelinedBackend",
    "ShardedBackend",
    "ProcessBackend",
    "EpochReport",
    "RunReport",
    "ShardPlan",
    "LookaheadDealer",
    "StageStats",
    "adaptive_depth",
    "BACKENDS",
    "register_backend",
    "get_backend",
    "available_backends",
]
