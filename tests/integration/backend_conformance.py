"""Backend conformance kit: the tiered parity matrix every backend
must pass.

The runtime's central guarantee is that execution strategy is *only*
strategy: every :class:`~repro.runtime.ExecutionBackend` executes the
same :class:`TrainingSession` / :class:`BatchPlan`. How literally that
is enforced depends on the tier the backend declares via its
``conformance_tier`` class attribute:

* ``strict`` (lock-step backends — threaded, process): for an identical
  seed/config the backend must reproduce the virtual-time reference
  **bit for bit** — per-iteration losses and accuracies, the DRM
  split/stage-time trajectory, total sampled edges, epoch coverage,
  and the final replica parameters.
* ``statistical`` (out-of-lock-step backends — the pipelined planes,
  whose live DRM step trails its producer and reads realized
  wall-clock seconds, and the process planes that deal a look-ahead
  window, whose DRM quotas lag it): bit-parity under DRM is
  impossible *by design*. The kit instead asserts what
  loose coupling must still preserve: the exact iteration count,
  **exact epoch coverage** (every train vertex exactly once per epoch
  — reordered or re-streamed, work is never lost or duplicated),
  per-worker shard disjointness where the backend reports it,
  target-budget conservation, the DRM trajectory's shape (length +
  work conservation per iteration), mutual replica consistency, and
  tolerance-based closeness of losses, sampled-edge totals and final
  parameters to the reference.

This module packages that guarantee as a reusable kit:

* :data:`CONFORMANCE_CASES` — the configuration matrix (flagship
  hybrid + DRM + int8 transfer on a platform session, functional-only
  multi-trainer, a non-neighbor sampler, and a short fp16-transfer
  run);
* :func:`candidate_backends` — every registered backend except the
  virtual reference, read live from ``available_backends()`` so a
  backend added via ``register_backend`` (third-party included) is
  picked up automatically by the parametrized suite in
  ``test_backend_equivalence.py`` — and inherits the tier its
  capability flag selects;
* :func:`assert_backend_conforms` — run one (backend, case) pair
  against a fresh virtual-plane reference and assert the tier's matrix
  — and, for a statistical preset with a strict twin
  (:data:`STRICT_TWINS`) on a case where its DRM moves no quota,
  bit-identity with the twin (:func:`assert_twin_identical`) — plus,
  on both reports, whatever the tier, the paper's Listing-1 handshake
  as an asserted trace (:func:`assert_listing1_trace`) and the
  realized stage seconds the synchronize tail bills
  (:func:`assert_stage_seconds`), which are scoped to their run on a
  kept backend (:func:`assert_stage_seconds_run_scoped`).

Third-party backends needing constructor arguments can extend
:data:`BACKEND_KWARGS` before the suite runs.

Two checks cover the data path on every registered plane:
:func:`assert_trains_in_store_dtype` — parameters, gradients and the
shm gradient slab are float32, the feature store's dtype, and no gather
widens — and :func:`assert_store_untouched_by_int8_run` — an int8 run
writes neither into the feature store nor into the wire table it
decodes from.

:func:`spy_feeds` exposes the buffers (whose capacity is the run's
window) of an in-process preset's feeds.

Two checks cover a backend that is *kept* across runs (the process
presets hold their worker pool and shared store for the backend's
lifetime): :func:`assert_reuse_invisible` — N runs on one backend
equal N runs on N fresh ones, bit for bit — and
:func:`assert_resumes_after_training_elsewhere` — a kept strict
backend re-syncs to the session at every run.

The kit also carries the **serving tier**
(:func:`assert_serving_conforms`): the online plane built on the same
:class:`~repro.runtime.stage_pipeline.StagePipeline` must partition
every submitted request into exactly one outcome (response or typed
shed), reproduce a reference replay of the shared stack bit for bit,
and conserve per-tenant credits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from unittest import mock

import numpy as np

from repro.config import SystemConfig, TrainingConfig, layer_dims
from repro.errors import ConfigError
from repro.graph.datasets import GraphDataset
from repro.hw.topology import hyscale_cpu_fpga_platform
from repro.kernels import reference
from repro.nn.models import build_model
from repro.runtime import (
    TrainingSession,
    available_backends,
    build_backend,
    get_backend,
)
from repro.runtime.backends.pipelined import PlanOrderFeed
from repro.runtime.protocol import validate_protocol
from repro.runtime.resctl import REALIZED_STAGES
from repro.runtime.shm import SharedFeatureStore
from repro.runtime.stage_pipeline import StagePipeline, dequantize
from repro.sampling import build_sampler
from repro.serving import ServingConfig, ServingSession, VirtualClock

#: The reference plane all other backends are held to.
REFERENCE_BACKEND = "virtual"

#: Per-backend constructor keyword overrides used by the kit. Keys are
#: registry names; anything not listed is constructed as
#: ``build_backend(name, session)`` — the typed-options front door, so
#: a typo in this table fails with an unknown-option error naming the
#: backend instead of a bare ``TypeError``.
BACKEND_KWARGS: dict[str, dict] = {
    "threaded": {"timeout_s": 30.0},
    "process": {"timeout_s": 120.0},
    "process_sampling": {"timeout_s": 120.0},
    "pipelined": {"timeout_s": 30.0},
    "process_pipelined": {"timeout_s": 120.0},
    "sharded": {"timeout_s": 120.0},
}

#: Tolerances of the statistical tier. Overlapped backends train the
#: same target partition with slightly different neighbor draws, so
#: epoch-level aggregates must land close to the reference even though
#: individual iterations differ. The final iteration is the epoch tail
#: (fewest targets, noisiest single-batch loss), so it gets a looser
#: bound than the epoch mean.
STAT_LOSS_RTOL = 0.25
STAT_FINAL_LOSS_RTOL = 0.5
STAT_EDGES_RTOL = 0.25
STAT_PARAM_REL_DIST = 0.15

#: The presets of the process driver: deterministic run to run on
#: both tiers (seeded per-worker streams), and the planes whose
#: workers + store outlive a run — what the reuse tier is about.
PROCESS_PRESETS = ("process", "process_sampling", "process_pipelined",
                   "sharded")

#: The recognized tiers, in increasing looseness.
CONFORMANCE_TIERS = ("strict", "statistical")

#: Statistical presets that differ from a strict preset only by a DRM
#: step that reads the clock or a look-ahead window, which both act
#: through DRM. Where DRM moves no quota (:func:`drm_idle`) each
#: must run its twin's trajectory bit for bit
#: (:func:`assert_twin_identical`); under DRM it stays statistical.
STRICT_TWINS: dict[str, str] = {"pipelined": "threaded",
                                "process_sampling": "process",
                                "process_pipelined": "process"}

#: Which shipped planes produce which coverage-evidence section of
#: their report. The statistical tier (and ``bench_e2e``) read these
#: fields as *present iff not None*, so a plane outside a field's set
#: must leave it ``None`` — never an empty list.
COVERAGE_EVIDENCE: dict[str, frozenset[str]] = {
    "trained_targets": frozenset({"pipelined", "process",
                                  "process_sampling",
                                  "process_pipelined", "sharded"}),
    "worker_targets": frozenset({"process", "process_sampling",
                                 "process_pipelined", "sharded"}),
    "shard_parts": frozenset({"sharded"}),
}

#: Accounting sections of a report: always a (possibly empty)
#: container, on every plane.
ACCOUNTING_SECTIONS = ("kernel_stats", "stage_seconds", "stage_stats",
                       "split_history", "shard_io")


@dataclass(frozen=True)
class ConformanceCase:
    """One configuration of the parity matrix.

    ``platform_accels=None`` builds a functional-only session with
    ``num_trainers`` replicas; an integer builds a platform session
    (CPU trainer + that many accelerators when hybrid) carrying the
    full timing plane. ``max_iterations=None`` runs a complete epoch
    and additionally asserts epoch-coverage invariants.
    """

    id: str
    platform_accels: int | None = None
    num_trainers: int = 3
    max_iterations: int | None = None
    profile_probes: int = 2
    train_cfg_kwargs: dict = field(default_factory=dict)
    sys_cfg_kwargs: dict = field(default_factory=dict)


#: The matrix every backend runs. The first case is the paper's
#: flagship stack: hybrid CPU+accelerator split, DRM re-balancing and
#: int8 PCIe transfer, full epoch, timing plane on.
CONFORMANCE_CASES: tuple[ConformanceCase, ...] = (
    ConformanceCase(
        id="hybrid-drm-int8",
        platform_accels=2,
        sys_cfg_kwargs=dict(hybrid=True, drm=True, prefetch=True,
                            transfer_precision="int8")),
    ConformanceCase(
        id="functional-hybrid",
        platform_accels=None, num_trainers=3,
        sys_cfg_kwargs=dict(hybrid=True, drm=False, prefetch=True)),
    ConformanceCase(
        id="saint-rw-sampler",
        platform_accels=None, num_trainers=2, max_iterations=3,
        train_cfg_kwargs=dict(sampler="saint-rw"),
        sys_cfg_kwargs=dict(hybrid=True, drm=False, prefetch=True)),
    ConformanceCase(
        id="fp16-transfer", num_trainers=2, max_iterations=2,
        sys_cfg_kwargs=dict(hybrid=True, drm=False, prefetch=True,
                            transfer_precision="fp16")),
)

#: A short functional run at full-precision transfer: every gather is a
#: plain row copy, so the bytes it writes equal the bytes it reads.
FP32_TRANSFER_CASE = ConformanceCase(
    id="fp32-transfer", num_trainers=2, max_iterations=2,
    sys_cfg_kwargs=dict(hybrid=True, drm=False, prefetch=True))

#: The same short run with int8 transfer: trainer 1 is an accelerator,
#: so its batches decode from the wire table.
INT8_TRANSFER_CASE = ConformanceCase(
    id="int8-transfer", num_trainers=2, max_iterations=2,
    sys_cfg_kwargs=dict(hybrid=True, drm=False, prefetch=True,
                        transfer_precision="int8"))


def drm_idle(case: ConformanceCase) -> bool:
    """Whether DRM moves no quota on ``case``: a platform-less session
    takes no timing/DRM step at all, and with DRM off the step never
    moves the split."""
    return case.platform_accels is None or \
        not SystemConfig(**case.sys_cfg_kwargs).drm


def candidate_backends() -> list[str]:
    """Registered backends that must conform to the reference."""
    return [name for name in available_backends()
            if name != REFERENCE_BACKEND]


def backend_tier(name: str) -> str:
    """The conformance tier backend ``name`` declares (capability flag).

    Read off the registered class so third-party backends select their
    tier by setting one class attribute; an unknown tier fails loudly
    here rather than silently passing the wrong matrix.
    """
    tier = getattr(get_backend(name), "conformance_tier", "strict")
    if tier not in CONFORMANCE_TIERS:
        raise ConfigError(
            f"backend {name!r} declares unknown conformance tier "
            f"{tier!r}; expected one of {CONFORMANCE_TIERS}")
    return tier


def make_session(case: ConformanceCase,
                 dataset: GraphDataset) -> TrainingSession:
    """Fresh session for ``case`` (every backend gets its own — the
    plan/sampler RNG streams are part of what conformance compares)."""
    train_cfg = TrainingConfig(**{
        "model": "sage", "minibatch_size": 32, "fanouts": (4, 3),
        "hidden_dim": 16, "learning_rate": 0.05, "seed": 11,
        **case.train_cfg_kwargs})
    sys_cfg = SystemConfig(**case.sys_cfg_kwargs)
    platform = None if case.platform_accels is None else \
        hyscale_cpu_fpga_platform(case.platform_accels)
    return TrainingSession(dataset, train_cfg, sys_cfg, platform,
                           num_trainers=case.num_trainers,
                           profile_probes=case.profile_probes)


def run_backend(name: str, case: ConformanceCase,
                dataset: GraphDataset,
                extra_kwargs: dict | None = None):
    """Execute ``case`` on backend ``name``; returns (session, report).

    ``extra_kwargs`` layers on top of :data:`BACKEND_KWARGS` for
    one-off knob settings (e.g. a fixed look-ahead window) without
    mutating the shared table.
    """
    session = make_session(case, dataset)
    kwargs = {**BACKEND_KWARGS.get(name, {}), **(extra_kwargs or {})}
    backend = build_backend(name, session, **kwargs)
    report = backend.run_epoch(case.max_iterations)
    return session, report


def spy_feeds(backend, monkeypatch) -> list:
    """Collect every :class:`PlanOrderFeed` ``backend`` builds from here
    on, so a test can read the buffers' capacity — the run's window."""
    feeds = []

    class Spy(PlanOrderFeed):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            feeds.append(self)

    monkeypatch.setattr(backend, "feed", Spy)
    return feeds


def threaded_backend(dataset: GraphDataset, train_cfg: TrainingConfig,
                     sys_cfg: SystemConfig | None = None, platform=None,
                     *, num_trainers: int = 3, timeout_s: float = 30.0):
    """A fresh session on the ``threaded`` backend, built the public
    way (``TrainingSession`` + ``build_backend``). Without ``sys_cfg``
    the session is platform-less functional training (DRM off); the
    live buffers hold the session's window (``sys_cfg.prefetch_depth``
    under prefetch), the depth the modelled pipeline uses."""
    if sys_cfg is None:
        sys_cfg = SystemConfig(drm=False)
    session = TrainingSession(dataset, train_cfg, sys_cfg, platform,
                              num_trainers=num_trainers, profile_probes=2)
    return build_backend("threaded", session, timeout_s=timeout_s)


def _params(session: TrainingSession) -> list[np.ndarray]:
    return [t.model.get_flat_params() for t in session.trainers]


def assert_backend_conforms(name: str, case: ConformanceCase,
                            dataset: GraphDataset,
                            extra_kwargs: dict | None = None) -> None:
    """Assert backend ``name`` matches the virtual reference on ``case``
    at the tier its capability flag declares.

    ``strict`` backends get the bit-exact matrix
    (:func:`assert_strict_conformance`); ``statistical`` backends get
    the coverage/conservation/closeness matrix
    (:func:`assert_statistical_conformance`). ``extra_kwargs`` apply
    to the candidate only (the reference always runs stock).
    """
    ref_session, ref = run_backend(REFERENCE_BACKEND, case, dataset)
    cand_session, cand = run_backend(name, case, dataset, extra_kwargs)
    if backend_tier(name) == "strict":
        assert_strict_conformance(name, case, ref_session, ref,
                                  cand_session, cand)
    else:
        assert_statistical_conformance(name, case, ref_session, ref,
                                       cand_session, cand)
    twin = STRICT_TWINS.get(name)
    if twin is not None and drm_idle(case):
        twin_session, twin_rep = run_backend(twin, case, dataset)
        assert_twin_identical(f"{name} vs {twin}", twin_session,
                              twin_rep, cand_session, cand)
    assert_listing1_trace(REFERENCE_BACKEND, ref_session, ref)
    assert_listing1_trace(name, cand_session, cand)
    assert_stage_seconds(REFERENCE_BACKEND, ref_session, ref)
    assert_stage_seconds(name, cand_session, cand,
                         ref if backend_tier(name) == "strict" else None)


def _stage_counts(report) -> dict[str, int]:
    return {key: count
            for key, (count, _) in report.stage_seconds.items()}


def assert_stage_seconds(name: str, session: TrainingSession, report,
                         reference=None) -> None:
    """The realized stage seconds every plane's synchronize tail bills
    to ``report.stage_seconds``: non-empty, on canonical keys (``sync``
    feeds the live clock only, it is never billed), one ``load`` and one
    ``train_*`` count per trained batch — at least one batch per
    iteration, at most one per trainer. Given the strict-tier
    ``reference`` report, the ``load`` and ``train_*`` counts equal
    its counts, and so does every ``sample_*`` count both planes
    record."""
    secs = report.stage_seconds
    assert secs, f"{name}: no stage seconds billed"
    assert set(secs) <= set(REALIZED_STAGES) - {"sync"}, \
        f"{name}: non-canonical stage keys {sorted(secs)}"
    counts = _stage_counts(report)
    trained = counts.get("train_cpu", 0) + counts.get("train_accel", 0)
    assert counts.get("load") == trained, \
        f"{name}: {counts.get('load')} loads for {trained} batches"
    assert report.iterations <= trained <= \
        report.iterations * session.num_trainers, \
        f"{name}: {trained} batches in {report.iterations} iterations"
    if reference is None:
        return
    want = _stage_counts(reference)
    shared_samples = {key for key in set(counts) & set(want)
                      if key.startswith("sample_")}
    for key in {"load", "train_cpu", "train_accel"} | shared_samples:
        assert counts.get(key) == want.get(key), \
            (f"{name}: {key} count {counts.get(key)} != reference "
             f"{want.get(key)}")


def assert_stage_seconds_run_scoped(name: str, case: ConformanceCase,
                                    dataset: GraphDataset) -> None:
    """Stage seconds belong to the run that trained the batches: two
    identical epochs on **one** kept backend bill the same counts to
    their own reports, so nothing a run (or a reused worker) measured
    leaks into the next run's ``stage_seconds``."""
    session = make_session(case, dataset)
    with build_backend(name, session,
                       **BACKEND_KWARGS.get(name, {})) as backend:
        first, second = (backend.run_epoch(case.max_iterations)
                         for _ in range(2))
        assert_stage_seconds(name, session, first)
        assert_stage_seconds(name, session, second)
    assert _stage_counts(second) == _stage_counts(first), \
        (f"{name}: second run billed {_stage_counts(second)}, "
         f"first {_stage_counts(first)}")


def assert_listing1_trace(name: str, session: TrainingSession,
                          report) -> None:
    """Listing 1 as an asserted trace, on every plane, the virtual
    reference included, both tiers: the report's
    :class:`~repro.runtime.protocol.ProtocolLog`
    covers every iteration of the run, and each iteration passes
    :func:`~repro.runtime.protocol.validate_protocol` — one ``DONE``
    per trainer (idle trainers included: they join the all-reduce with
    weight zero), one ``SYNC`` after all of them, one ``ACK`` per
    trainer after it, and no event of iteration ``i + 1`` before
    iteration ``i``'s last ``ACK``."""
    log = report.protocol_log
    assert log.num_iterations == report.iterations, \
        (f"{name}: protocol log covers {log.num_iterations} of "
         f"{report.iterations} iterations")
    validate_protocol(log, session.num_trainers)


def assert_strict_conformance(name, case, ref_session, ref,
                              cand_session, cand) -> None:
    """The bit-exact matrix (same batches, same gradients, same
    all-reduce, same optimizer steps — execution strategy must not
    change the math):

    * iteration count and per-iteration losses / accuracies;
    * the DRM trajectory (split history) and modelled stage times,
      when the session carries a timing plane;
    * total sampled edges (the MTEPS numerator);
    * final replica parameters, parameter for parameter;
    * replica consistency as self-reported by the backend (when its
      report exposes it);
    * epoch coverage: a full-epoch run takes exactly
      ``iterations_per_epoch()`` iterations off one plan permutation.
    """
    assert cand.iterations == ref.iterations
    np.testing.assert_array_equal(ref.losses, cand.losses)
    np.testing.assert_array_equal(ref.accuracies, cand.accuracies)
    assert cand.total_edges == ref.total_edges

    if ref_session.has_timing:
        assert cand.split_history == ref.split_history
        assert cand.stage_history == ref.stage_history
        assert cand.virtual_time_s == ref.virtual_time_s

    consistent = getattr(cand, "replicas_consistent", None)
    if consistent is not None:
        assert consistent, f"{name} reports inconsistent replicas"

    for ref_p, cand_p in zip(_params(ref_session),
                             _params(cand_session)):
        np.testing.assert_array_equal(ref_p, cand_p)

    _assert_epoch_bookkeeping(case, cand_session, cand)


def assert_twin_identical(what: str, a_session: TrainingSession, a,
                          b_session: TrainingSession, b) -> None:
    """Two runs of one trajectory, bit for bit: per-iteration losses and
    accuracies, total sampled edges, the split history and every
    replica's final parameters."""
    np.testing.assert_array_equal(a.losses, b.losses,
                                  err_msg=f"{what}: losses differ")
    np.testing.assert_array_equal(a.accuracies, b.accuracies,
                                  err_msg=f"{what}: accuracies differ")
    assert a.total_edges == b.total_edges, f"{what}: edges differ"
    assert a.split_history == b.split_history, \
        f"{what}: split histories differ"
    for pa, pb in zip(_params(a_session), _params(b_session)):
        np.testing.assert_array_equal(pa, pb,
                                      err_msg=f"{what}: params differ")


def assert_statistical_conformance(name, case, ref_session, ref,
                                   cand_session, cand) -> None:
    """The overlapped-execution matrix: what an out-of-lock-step
    backend must still preserve exactly, and what it must reproduce
    within tolerance.

    Exact:

    * iteration count (the plan's quota arithmetic is DRM-invariant:
      Algorithm 1 conserves the per-iteration target total);
    * epoch coverage, when the backend exposes ``trained_targets``: a
      full-epoch run trains every train vertex exactly once, a partial
      run trains exactly ``iterations x total_targets`` distinct
      vertices — overlap may reorder work, never lose or duplicate it;
    * per-worker coverage, when the backend exposes ``worker_targets``
      (worker-side sampling planes): the per-worker shards are mutually
      disjoint — no target trained by two workers — and their union is
      exactly the set of dispatched targets, so sharding the plan
      across workers neither drops nor double-deals work;
    * DRM trajectory shape: one split per iteration, each conserving
      the target budget (work conservation under pipeline lag);
    * mutual replica consistency after the final all-reduce.

    Within tolerance (overlap or a live DRM step makes
    individual batches differ):

    * mean per-iteration loss (:data:`STAT_LOSS_RTOL`) and final loss
      (:data:`STAT_FINAL_LOSS_RTOL` — the epoch tail is noisiest);
    * total sampled edges (:data:`STAT_EDGES_RTOL`);
    * final replica parameters, by relative L2 distance
      (:data:`STAT_PARAM_REL_DIST`).
    """
    assert cand.iterations == ref.iterations
    assert len(cand.losses) == len(ref.losses)
    assert all(np.isfinite(v) for v in cand.losses)

    np.testing.assert_allclose(
        float(np.mean(cand.losses)), float(np.mean(ref.losses)),
        rtol=STAT_LOSS_RTOL,
        err_msg=f"{name}: mean loss drifted beyond tolerance")
    np.testing.assert_allclose(
        cand.losses[-1], ref.losses[-1], rtol=STAT_FINAL_LOSS_RTOL,
        err_msg=f"{name}: final loss drifted beyond tolerance")
    np.testing.assert_allclose(
        cand.total_edges, ref.total_edges, rtol=STAT_EDGES_RTOL,
        err_msg=f"{name}: sampled-edge total drifted beyond tolerance")

    total_targets = cand_session.initial_split.total_targets
    trained = getattr(cand, "trained_targets", None)
    if trained is not None:
        flat = np.concatenate(trained)
        assert np.unique(flat).size == flat.size, \
            f"{name} trained a target twice within one epoch"
        train_ids = cand_session.dataset.train_ids
        if case.max_iterations is None:
            np.testing.assert_array_equal(np.sort(flat), train_ids)
        else:
            expected = min(cand.iterations * total_targets,
                           int(train_ids.size))
            assert flat.size == expected, \
                (f"{name} trained {flat.size} targets, expected "
                 f"{expected} (budget conservation)")

    worker_targets = getattr(cand, "worker_targets", None)
    if worker_targets is not None:
        assert trained is not None, \
            (f"{name} exposes worker_targets without trained_targets; "
             "the kit cannot cross-check shard coverage")
        per_worker = [np.concatenate(ts) if ts else
                      np.empty(0, dtype=np.int64)
                      for ts in worker_targets]
        union = np.concatenate(per_worker)
        # No double-training: a target trained by two workers would
        # survive each worker's own dedup but collide here.
        assert np.unique(union).size == union.size, \
            f"{name}: two workers trained the same target"
        # Union of worker-trained targets == the dispatched target set
        # (and therefore, on full epochs, == the epoch target set).
        np.testing.assert_array_equal(
            np.sort(union), np.sort(np.concatenate(trained)),
            err_msg=f"{name}: worker shards do not partition the "
                    "dispatched targets")

    # Cross-node shard ownership: a backend that trains over a vertex
    # partition (``shard_parts`` on its report — the sharded plane, or
    # any third-party multi-node backend) must have dealt every target
    # to the worker that owns it. Together with the disjointness/union
    # checks above this is the distributed-training contract: the
    # per-shard trained sets partition each epoch's target set along
    # the partition map.
    shard_parts = getattr(cand, "shard_parts", None)
    if shard_parts is not None:
        assert worker_targets is not None, \
            (f"{name} exposes shard_parts without worker_targets; the "
             "kit cannot audit shard ownership")
        shard_parts = np.asarray(shard_parts)
        for widx, ts in enumerate(worker_targets):
            if not ts:
                continue
            ids = np.concatenate(ts)
            owners = np.unique(shard_parts[ids])
            assert owners.size <= 1 and \
                (owners.size == 0 or owners[0] == widx), \
                (f"{name}: worker {widx} trained targets owned by "
                 f"shards {owners.tolist()}")

    if ref_session.has_timing:
        assert len(cand.split_history) == cand.iterations
        assert len(cand.stage_history) == cand.iterations
        for split in cand.split_history:
            assert split.total_targets == total_targets
        cand_vtime = getattr(cand, "virtual_time_s", 0.0)
        assert cand_vtime > 0.0

    consistent = getattr(cand, "replicas_consistent", None)
    if consistent is not None:
        assert consistent, f"{name} reports inconsistent replicas"

    for ref_p, cand_p in zip(_params(ref_session),
                             _params(cand_session)):
        dist = float(np.linalg.norm(cand_p - ref_p))
        scale = float(np.linalg.norm(ref_p)) + 1e-12
        assert dist / scale < STAT_PARAM_REL_DIST, \
            (f"{name}: replica parameters drifted {dist / scale:.3f} "
             f"relative L2 from the reference "
             f"(limit {STAT_PARAM_REL_DIST})")

    _assert_epoch_bookkeeping(case, cand_session, cand)


def assert_reuse_invisible(name: str, case: ConformanceCase,
                           dataset: GraphDataset,
                           epochs: int = 3) -> None:
    """A long-lived backend is numerically invisible: ``epochs``
    ``run_epoch()`` calls on **one** backend equal the same epochs on
    ``epochs`` **fresh** backends over an identically seeded session,
    bit for bit — losses, accuracies, sampled edges, per-worker
    targets, shard io, kernel counters, final parameters — on every
    process preset, statistical tier included (a reused worker
    re-derives its per-run state at each ``init``, which hands it its
    trainer's stream position). And reuse is what it is for: runs after the first pay
    a small fraction of the first run's ``startup_time_s``.

    Use a case without DRM for the presets that read the clock: their
    DRM moves follow wall-clock readings, which no rerun reproduces.
    """
    kwargs = BACKEND_KWARGS.get(name, {})
    kept_session = make_session(case, dataset)
    with build_backend(name, kept_session, **kwargs) as kept:
        kept_reports = [kept.run_epoch(case.max_iterations)
                        for _ in range(epochs)]
    fresh_session = make_session(case, dataset)
    for epoch, kept_rep in enumerate(kept_reports):
        with build_backend(name, fresh_session, **kwargs) as fresh:
            fresh_rep = fresh.run_epoch(case.max_iterations)
        for section in ("losses", "accuracies", "total_edges",
                        "dealt_sizes", "kernel_stats", "shard_io"):
            assert getattr(kept_rep, section) == \
                getattr(fresh_rep, section), \
                f"{name}: epoch {epoch} {section} differs under reuse"
        for a, b in zip(kept_rep.worker_targets or [],
                        fresh_rep.worker_targets or []):
            np.testing.assert_array_equal(
                np.concatenate(a) if a else [],
                np.concatenate(b) if b else [])
        assert kept_rep.replicas_consistent
    for kept_p, fresh_p in zip(_params(kept_session),
                               _params(fresh_session)):
        np.testing.assert_array_equal(kept_p, fresh_p)
    startups = [r.startup_time_s for r in kept_reports]
    assert max(startups[1:]) < 0.5 * startups[0], \
        (f"{name}: start-up {startups} s — later runs should reuse "
         "what the first one opened")


def assert_resumes_after_training_elsewhere(
        name: str, case: ConformanceCase,
        dataset: GraphDataset) -> None:
    """A kept strict backend re-syncs at every run: an epoch on
    ``name``, one on the virtual plane over the *same session*, then
    another on the *same* ``name`` backend equals three epochs on the
    virtual plane alone — the workers' replicas, stale after the
    detour, are overwritten by the ``init`` handshake."""
    ref_session = make_session(case, dataset)
    ref_backend = build_backend(REFERENCE_BACKEND, ref_session)
    ref = [ref_backend.run_epoch(case.max_iterations)
           for _ in range(3)]
    session = make_session(case, dataset)
    detour = build_backend(REFERENCE_BACKEND, session)
    with build_backend(name, session,
                       **BACKEND_KWARGS.get(name, {})) as kept:
        got = [kept.run_epoch(case.max_iterations),
               detour.run_epoch(case.max_iterations),
               kept.run_epoch(case.max_iterations)]
    for want_rep, got_rep in zip(ref, got):
        np.testing.assert_array_equal(want_rep.losses, got_rep.losses)
        np.testing.assert_array_equal(want_rep.accuracies,
                                      got_rep.accuracies)
        assert got_rep.split_history == want_rep.split_history
    assert got[2].replicas_consistent
    for ref_p, p in zip(_params(ref_session), _params(session)):
        np.testing.assert_array_equal(ref_p, p)


def assert_report_sections(name: str, report) -> None:
    """The report section contract for shipped backend ``name``:
    coverage evidence is ``None`` exactly on the planes that do not
    produce it (:data:`COVERAGE_EVIDENCE`); every accounting section
    is a container, empty where the layer does not exist."""
    for section, producers in COVERAGE_EVIDENCE.items():
        present = getattr(report, section, None) is not None
        assert present == (name in producers), \
            (f"{name}: report.{section} is "
             f"{'set' if present else 'None'}, expected "
             f"{'set' if name in producers else 'None'}")
    for section in ACCOUNTING_SECTIONS:
        assert isinstance(getattr(report, section), (dict, list)), \
            f"{name}: report.{section} is not a container"


def assert_trains_in_store_dtype(name: str,
                                 dataset: GraphDataset) -> None:
    """float32 end to end on backend ``name``: after a run every
    replica's parameters and gradients are float32 (the feature
    store's dtype); a process plane's shm gradient slab is
    ``(workers + 1) × P`` float32; and the run's gathers wrote exactly
    the bytes they read — nothing on the data path widened."""
    assert dataset.features.dtype == np.float32
    session = make_session(FP32_TRANSFER_CASE, dataset)
    slabs = []
    create = SharedFeatureStore.create.__func__

    def spy(cls, *args, **kwargs):
        store = create(cls, *args, **kwargs)
        slabs.append((store.grads.shape, store.grads.dtype))
        return store

    with mock.patch.object(SharedFeatureStore, "create",
                           classmethod(spy)), \
            build_backend(name, session,
                          **BACKEND_KWARGS.get(name, {})) as backend:
        report = backend.run_epoch(FP32_TRANSFER_CASE.max_iterations)
    if name in PROCESS_PRESETS:
        rows_by_params = (session.num_trainers + 1,
                          session.trainers[0].model.num_params)
        assert slabs == [(rows_by_params, np.float32)], \
            f"{name}: gradient slab {slabs}"
    else:
        assert not slabs, f"{name}: an in-process plane made a store"
    for trainer in session.trainers:
        for (pname, p), (_, g) in zip(trainer.model.parameters(),
                                      trainer.model.gradients()):
            assert p.dtype == g.dtype == np.float32, \
                f"{name}: {trainer.name} {pname} is {p.dtype}/{g.dtype}"
    stats = report.kernel_stats
    assert stats["gather_out_bytes"] == stats["gather_src_bytes"] > 0, \
        f"{name}: gathers widened ({stats})"


def _assert_table_untouched(name: str, table, before) -> None:
    """``table`` is read-only and still the encoding of ``before``."""
    assert not (table.codes.flags.writeable
                or table.scales.flags.writeable), \
        f"{name}: the wire table is writeable"
    assert np.array_equal(dequantize(table),
                          reference.quantize(before, "int8")), \
        f"{name}: the run wrote into the wire table"


def assert_store_untouched_by_int8_run(name: str,
                                       dataset: GraphDataset) -> None:
    """No plane writes into what its loads read. After an int8 run on
    backend ``name`` that did decode, the feature store the trainers
    read — ``dataset.features`` in process, the shared segment's
    features on a process plane — is bit-identical to before the run,
    and so is the wire table the run decoded from — the session's, or
    the segment's on a process plane, whose parent keeps none: read-only,
    still the encoding of the untouched store."""
    before = dataset.features.copy()
    session = make_session(INT8_TRANSFER_CASE, dataset)
    stores = []
    create = SharedFeatureStore.create.__func__

    def spy(cls, *args, **kwargs):
        store = create(cls, *args, **kwargs)
        stores.append((store, store.features.copy()))
        return store

    with mock.patch.object(SharedFeatureStore, "create",
                           classmethod(spy)), \
            build_backend(name, session,
                          **BACKEND_KWARGS.get(name, {})) as backend:
        report = backend.run_epoch(INT8_TRANSFER_CASE.max_iterations)
        for store, snapshot in stores:
            assert np.array_equal(store.features, snapshot), \
                f"{name}: the run wrote into the shared feature store"
            _assert_table_untouched(name, store.wire_table, before)
    assert (len(stores) == 1) == (name in PROCESS_PRESETS), \
        f"{name}: {len(stores)} shared stores"
    assert report.kernel_stats.get("decode_calls", 0) > 0, \
        f"{name}: no accelerator batch was decoded"
    assert np.array_equal(dataset.features, before), \
        f"{name}: the run wrote into dataset.features"
    table = session.pipeline.wire_table
    assert (table is None) == (name in PROCESS_PRESETS), \
        f"{name}: a session keeps its wire table exactly off the " \
        "process planes"
    if table is not None:
        _assert_table_untouched(name, table, before)


def _assert_epoch_bookkeeping(case, cand_session, cand) -> None:
    """Full-epoch runs consume exactly one plan permutation."""
    if case.max_iterations is None:
        assert cand.iterations == \
            cand_session.iterations_per_epoch()
        assert cand_session.plan.epochs_started == 1


# ----------------------------------------------------------------------
# The serving tier
# ----------------------------------------------------------------------
#
# The serving plane rides the same StagePipeline the training backends
# do, so its conformance matrix is request-level rather than
# loss-level: every submitted request gets exactly one outcome
# (response or typed shed — never both, never neither, never twice),
# every completed batch's predictions are bit-identical to a reference
# replay of the same stack, and per-tenant credit spending conserves.


def default_serving_script(dataset: GraphDataset,
                           num_requests: int = 40, *,
                           targets_per_request: int = 4,
                           tenants: tuple[str, ...] = ("a", "b"),
                           seed: int = 3) -> list[tuple[np.ndarray, str]]:
    """A deterministic request script with cross-request duplicate
    targets (the case micro-batch dedup must get right)."""
    rng = np.random.default_rng(seed)
    ids = dataset.train_ids
    script = []
    for i in range(num_requests):
        targets = rng.choice(ids, size=targets_per_request,
                             replace=False)
        script.append((targets, tenants[i % len(tenants)]))
    return script


def run_serving_audit(dataset: GraphDataset,
                      train_cfg: TrainingConfig,
                      sys_cfg: SystemConfig, *,
                      config: ServingConfig,
                      script: list[tuple[np.ndarray, str]],
                      step_every: int = 4,
                      advance_s: float = 0.01):
    """Replay ``script`` against a fresh :class:`ServingSession` on a
    virtual clock; returns ``(session, responses, sheds)``.

    The clock advances ``advance_s`` per submission and the session
    steps every ``step_every`` submissions, so batches flush by both
    deadline and size along the way; the tail drains explicitly.
    """
    clock = VirtualClock()
    session = ServingSession(dataset, train_cfg, sys_cfg,
                             config=config, clock=clock)
    responses, sheds = [], []
    for i, (targets, tenant) in enumerate(script):
        shed = session.submit(targets, tenant=tenant)
        if shed is not None:
            sheds.append(shed)
        clock.advance(advance_s)
        if (i + 1) % step_every == 0:
            responses.extend(session.step())
    clock.advance(config.window_s)
    responses.extend(session.drain())
    session.close()
    return session, responses, sheds


def assert_serving_conforms(dataset: GraphDataset,
                            train_cfg: TrainingConfig,
                            sys_cfg: SystemConfig, *,
                            config: ServingConfig,
                            script: list[tuple[np.ndarray, str]],
                            **audit_kwargs) -> None:
    """Run the serving audit and assert the serving-tier matrix:

    * **outcome partition** — every submitted request appears in
      exactly one of (responses, sheds); no drops, no duplicates;
    * **typed shed only** — every shed carries a recognized reason and
      shed requests never reach the sampler (they do no stage work, so
      the executed-batch audit below cannot contain them);
    * **batch integrity** — each response's ``batch_seq`` names a real
      flushed batch; batches partition the accepted requests;
    * **bit-identical stack** — replaying each executed batch's unique
      target set through a fresh reference ``StagePipeline`` + model
      (same seeds, same sample order) reproduces every prediction bit
      for bit: serving *is* the training stack, not a lookalike;
    * **credit conservation** — per tenant, targets spent never exceed
      burst + refilled, and equal the accepted requests' target total;
    * **stats isolation** — the session counted kernel work on its own
      counters.
    """
    session, responses, sheds = run_serving_audit(
        dataset, train_cfg, sys_cfg, config=config, script=script,
        **audit_kwargs)

    # Outcome partition over submitted ids.
    ids = [r.request_id for r in responses] + \
        [s.request_id for s in sheds]
    assert sorted(ids) == list(range(len(script))), \
        "responses + sheds must partition the submitted requests"

    from repro.serving import SHED_REASONS
    for shed in sheds:
        assert shed.reason in SHED_REASONS

    # Batch integrity: group accepted requests by the batch that
    # served them, in flush order.
    by_batch: dict[int, list] = {}
    for r in responses:
        by_batch.setdefault(r.batch_seq, []).append(r)
    assert len(by_batch) == len(session.report.batch_sizes)
    assert sum(len(v) for v in by_batch.values()) == \
        session.report.completed == session.report.accepted

    # Bit-identical stack: a reference pipeline built from the same
    # seeds replays each executed batch's unique target set in flush
    # order and must reproduce every prediction exactly.
    ref_sampler = build_sampler(
        train_cfg.sampler, dataset.graph, dataset.train_ids,
        train_cfg, dataset.spec.feature_dim)
    ref_pipeline = StagePipeline(ref_sampler, dataset.features,
                                 dataset.labels,
                                 sys_cfg.transfer_precision)
    dims = layer_dims(dataset.spec.feature_dim, train_cfg.hidden_dim,
                      dataset.spec.num_classes, train_cfg.num_layers)
    ref_model = build_model(train_cfg.model, dims, train_cfg.seed)
    script_targets = {i: t for i, (t, _) in enumerate(script)}
    for seq in sorted(by_batch):
        batch_rs = sorted(by_batch[seq],
                          key=lambda r: r.request_id)
        concat = np.concatenate(
            [script_targets[r.request_id] for r in batch_rs])
        unique, inverse = np.unique(concat, return_inverse=True)
        prepared = ref_pipeline.prepare(unique, config.device,
                                        with_labels=False)
        logits = ref_model.forward(prepared.mb, prepared.x0,
                                   dataset.graph.out_degrees)
        want = np.argmax(logits, axis=1)[inverse]
        offset = 0
        for r in batch_rs:
            n = script_targets[r.request_id].size
            np.testing.assert_array_equal(
                r.predictions, want[offset:offset + n],
                err_msg=f"request {r.request_id} (batch {seq}): "
                        "serving predictions diverge from the "
                        "reference stack")
            offset += n

    # Credit conservation (when credits are enabled).
    accepted_by_tenant: dict[str, int] = {}
    for r in responses:
        accepted_by_tenant[r.tenant] = \
            accepted_by_tenant.get(r.tenant, 0) + \
            script_targets[r.request_id].size
    for tenant, row in session.credits.ledger().items():
        assert row["spent_targets"] <= row["burst_targets"] + \
            row["refilled_targets"] + 1e-6, \
            f"tenant {tenant!r} spent more credits than it was issued"
        assert row["spent_targets"] == \
            accepted_by_tenant.get(tenant, 0), \
            (f"tenant {tenant!r} ledger disagrees with the accepted "
             "request total")

    # Kernel stats landed on the session's own counters.
    if responses:
        assert session.counters.snapshot().get("gather_rows", 0) > 0
