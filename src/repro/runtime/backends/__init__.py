"""Pluggable execution backends for the shared runtime core.

A backend realizes the training protocol of a
:class:`~repro.runtime.core.TrainingSession` on a concrete execution
substrate. Seven registry names ship, as presets of two drivers: three
of the in-process driver (:class:`~.pipelined.InProcessBackend`:
``virtual``, the thread-less modelled-hardware reference, and
``threaded``, ``pipelined``) and four of the process-plane driver
(:class:`~.process.ProcessBackend`: ``process``, ``process_sampling``,
``process_pipelined``, ``sharded``). Every run returns one
:class:`~.report.RunReport`. All consume the same session and
work source, and ``tests/integration/backend_conformance.py`` holds
every registered backend (third-party ones included) to the tier its
:attr:`~ExecutionBackend.conformance_tier` declares. What each plane
does, the driver's seams, the worker snapshot and how to register a
new preset: ``docs/backends.md``.
"""

from __future__ import annotations

import inspect

from ...errors import ConfigError
from ...registry import Registry
from .base import ExecutionBackend
from .report import RunReport, StageStats
from .overlap import LookaheadDealer
from .pipelined import InProcessBackend, PipelinedBackend, ThreadedBackend
from .virtual import VirtualTimeBackend
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

    Usable as a class decorator; returns ``cls`` unchanged. The
    constructor's keyword parameters are the backend's knobs — there is
    no separate declaration (see :func:`build_backend`).
    """
    if not getattr(cls, "name", ""):
        raise ConfigError(
            f"backend class needs a non-empty `name`; registered: "
            f"{sorted(BACKENDS)}")
    BACKENDS.register(cls.name, cls)
    return cls


def get_backend(name: str) -> type[ExecutionBackend]:
    """Look up a backend class by registry key (unknown names raise
    :class:`~repro.errors.ConfigError` listing the registry)."""
    return BACKENDS.get(name)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return BACKENDS.available()


def build_backend(name: str, session, **kwargs) -> ExecutionBackend:
    """Construct backend ``name`` over ``session`` with ``kwargs``.

    The knobs are checked against the constructor's signature before it
    runs: a misspelt one raises :class:`~repro.errors.ConfigError`
    naming the backend and the keywords it accepts, not a bare
    ``TypeError`` from inside ``__init__``.
    """
    cls = get_backend(name)
    known = sorted(set(inspect.signature(cls.__init__).parameters)
                   - {"self", "session"})
    unknown = sorted(set(kwargs) - set(known))
    if unknown:
        raise ConfigError(
            f"unknown option(s) {unknown} for backend {name!r}; "
            f"known options: {known}")
    return cls(session, **kwargs)


register_backend(VirtualTimeBackend)
register_backend(ThreadedBackend)
register_backend(ProcessPoolBackend)
register_backend(ProcessSamplingBackend)
register_backend(PipelinedBackend)
register_backend(ProcessPipelinedBackend)
register_backend(ShardedBackend)

__all__ = [
    "ExecutionBackend",
    "build_backend",
    "VirtualTimeBackend",
    "InProcessBackend",
    "ThreadedBackend",
    "ProcessPoolBackend",
    "ProcessSamplingBackend",
    "PipelinedBackend",
    "ProcessPipelinedBackend",
    "ShardedBackend",
    "ProcessBackend",
    "RunReport",
    "ShardPlan",
    "LookaheadDealer",
    "StageStats",
    "BACKENDS",
    "register_backend",
    "get_backend",
    "available_backends",
]
