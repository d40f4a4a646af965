"""Exception hierarchy for the HyScale-GNN reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so callers
can catch library failures without masking programming errors elsewhere.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """A configuration object failed validation."""


class GraphError(ReproError):
    """An operation on a graph structure was invalid."""


class SamplingError(ReproError):
    """A mini-batch sampler was misused or produced an invalid batch."""


class ShapeError(ReproError):
    """An array had an unexpected shape or dtype."""


class DeviceError(ReproError):
    """A hardware-model operation was invalid (topology, parallelism, ...)."""


class ProtocolError(ReproError):
    """The processor-accelerator training protocol was violated."""


class StageTimeoutError(ProtocolError):
    """A watchdog deadline expired on a blocking stage handoff.

    Raised by :class:`~repro.runtime.prefetch.PrefetchBuffer` waits and
    the process backends' cross-process receives. Subclasses
    :class:`ProtocolError` so existing handlers keep working, but CI
    logs can tell an *infrastructure* stall (wedged worker, starved
    pipeline) apart from a conformance failure.
    """


class WorkerError(ProtocolError):
    """A worker process died, crashed, or answered out of protocol.

    Carries the worker's traceback when one was received. Like
    :class:`StageTimeoutError`, this exists so infra failures are
    distinguishable from conformance failures in CI logs.
    """


class SimulationError(ReproError):
    """The discrete-event engine was driven into an invalid state."""
