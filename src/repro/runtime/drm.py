"""Dynamic Resource Management engine (paper §IV-A, Algorithm 1).

The DRM engine is a bottleneck-guided optimizer invoked once per
iteration with the measured stage times. Its decision structure follows
Algorithm 1 line by line:

* ``T_Accel = max(T_Tran, T_TA)`` — transfer and accelerator training are
  bundled because their times co-vary with the accelerator workload;
* the bottleneck (largest) and fastest (smallest) of
  ``{T_SC, T_SA, T_Load, T_TC, T_Accel}`` select the case;
* ``balance_work`` shifts mini-batch quota (or sampling share) between
  CPU and accelerators, conserving the total mini-batch size;
* ``balance_thread`` moves CPU threads from the fastest CPU-resident task
  to the bottlenecked one.

Three engineering details the paper leaves implicit:

* **hysteresis** — if the bottleneck exceeds the runner-up by less than
  ``hysteresis`` (relative), no action is taken; otherwise the engine
  oscillates on noise;
* **non-CPU "fastest"** — Algorithm 1's ``balance_thread(fastest, ...)``
  can name an accelerator task, which has no CPU threads to donate; we
  substitute the fastest *CPU* task, which is the only sensible reading;
* **measured-improvement revert** — after each move the engine watches
  the next iteration's measured per-target time; if the move made things
  worse it is undone and that bottleneck case enters a short cooldown.
  Without this guard a bottleneck-only rule oscillates between two
  stages whose times cross (the "improve training throughput" objective
  of §IV-A demands moves that actually help).

On a live plane (:meth:`DRMEngine.adjust` with ``realized``) the step
reads the clock instead of the model, by the trade rule of
incremental allocators: each move is a **trial** over a window of the
split's realized readings. Once the window is full, the move stands
only if the window's mean realized seconds per target beat the best
split's, and the next granule of quota moves from the slower training
side to the faster one. A live plane runs no thread pools and samples
on the host, so the live step never moves threads or the sampling
share.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Mapping

from ..config import SystemConfig
from ..errors import ConfigError
from ..perfmodel.model import StageTimes, WorkloadSplit

#: Stage keys used by the decision logic.
_SC, _SA, _LOAD, _TC, _ACCEL = ("sample_cpu", "sample_accel", "load",
                                "train_cpu", "train_accel_bundle")
_CPU_TASKS = (_SC, _LOAD, _TC)

#: Minimum targets an active accelerator trainer keeps (work cannot be
#: drained to zero by repeated balance_work calls).
MIN_ACCEL_TARGETS = 64

#: Minimum threads the sampler/loader pools always retain.
_THREAD_FLOOR = 16

#: Readings of one split a live trial averages, past the look-ahead lag
#: that delays a move's batches: one outlier iteration (a ragged epoch
#: tail, a collector pause) moves the window's mean by a ninth.
TRIAL_READINGS = 9


@dataclass(frozen=True)
class DRMDecision:
    """Record of one DRM invocation (for traces, tests and benches)."""

    iteration: int
    bottleneck: str
    fastest: str
    action: str            # "balance_work" | "balance_thread" | "none"
    detail: str
    old_split: WorkloadSplit
    new_split: WorkloadSplit


class DRMEngine:
    """Stateful fine-grained task-mapping optimizer.

    Parameters
    ----------
    config:
        System flags; ``config.drm_work_step`` / ``drm_thread_step`` set
        the move granularity.
    minibatch_size:
        Base mini-batch size (work moves in ``drm_work_step`` fractions
        of this).
    hybrid:
        Whether a CPU trainer exists (balance_work toward the CPU is a
        no-op otherwise).
    total_threads:
        CPU thread budget the split must respect.
    hysteresis:
        Relative slack under which the engine declines to act.
    """

    def __init__(self, config: SystemConfig, minibatch_size: int,
                 hybrid: bool, total_threads: int = 256,
                 hysteresis: float = 0.05, pipelined: bool = True,
                 revert_tolerance: float = 0.05,
                 cooldown_iterations: int = 5) -> None:
        if minibatch_size <= 0:
            raise ConfigError("minibatch_size must be positive")
        if not 0.0 <= hysteresis < 1.0:
            raise ConfigError("hysteresis must be in [0, 1)")
        self.config = config
        self.minibatch_size = minibatch_size
        self.hybrid = hybrid
        self.total_threads = total_threads
        self.hysteresis = hysteresis
        self.pipelined = pipelined
        self.revert_tolerance = revert_tolerance
        self.cooldown_iterations = cooldown_iterations
        self.decisions: list[DRMDecision] = []
        #: Readings a live trial averages: :data:`TRIAL_READINGS` plus
        #: the look-ahead window's lag.
        self.trial_window = TRIAL_READINGS + (
            config.prefetch_depth - 1 if config.prefetch else 0)
        self._pending: tuple[WorkloadSplit, float, str] | None = None
        self._cooldown: dict[str, int] = {}
        self._backoff: dict[str, int] = {}
        self._best: tuple[WorkloadSplit, float] | None = None
        # Live trials: the split the window below was read under, its
        # readings, the best window seen and the case of the move on
        # trial.
        self._held: WorkloadSplit | None = None
        self._window: list[tuple[float, float, float]] = []
        self._trial_best: tuple[WorkloadSplit, float] | None = None
        self._trial_case: str | None = None

    # ------------------------------------------------------------------
    def _metric(self, split: WorkloadSplit, times: StageTimes) -> float:
        """Seconds per trained target — lower is better."""
        total = max(1, split.total_targets)
        return times.iteration_time(self.pipelined) / total

    def adjust(self, split: WorkloadSplit, times: StageTimes,
               iteration: int = 0,
               realized: Mapping[str, float] | None = None
               ) -> WorkloadSplit:
        """One Algorithm-1 step with measured-improvement feedback.

        The throughput metric is compared against the *best* state seen
        so far (not merely the pre-move state): sequences of small moves
        that each slip under the tolerance can otherwise creep the
        system far from its optimum before any single step looks bad.

        ``realized`` (a live plane's clock: the iteration's realized
        seconds on canonical stage keys) makes the step a trial on
        those readings instead (:meth:`_live`).
        """
        if realized is not None:
            return self._live(split, realized, iteration)
        metric = self._metric(split, times)
        if self._best is None or metric < self._best[1]:
            self._best = (split, metric)

        # Judge the previous move against the best-known state.
        if self._pending is not None:
            _, _, case = self._pending
            self._pending = None
            best_split, best_metric = self._best
            if metric > best_metric * (1.0 + self.revert_tolerance):
                return self._revert(case, split, best_split, iteration)
            self._backoff.pop(case, None)

        new_split = self._algorithm1(split, times, iteration)
        if new_split is not split:
            self._pending = (split, metric,
                             self.decisions[-1].bottleneck)
        return new_split

    def _live(self, split: WorkloadSplit, realized: Mapping[str, float],
              iteration: int) -> WorkloadSplit:
        """A live step. Each split collects a window of its last
        :attr:`trial_window` readings — ``train_cpu``, ``train_accel``
        and the iteration's realized seconds per target (Eq. 9 on wall
        clocks: the slower trainer side, then the all-reduce) — and the
        engine acts only once the window is full. A move on trial
        stands only if the window's mean seconds per target beat the
        best split's latest window, else it is reverted to that split
        with the usual cooldown — with no tolerance, because a window
        of wall seconds is noisy and keeping moves that did not pay
        lets noise walk the split. Then one granule of quota moves
        from the slower training side to the faster one, beyond
        ``hysteresis``; threads and the sampling share stay."""
        if split != self._held:
            self._held, self._window = split, []
        cpu = realized.get("train_cpu", 0.0)
        accel = realized.get("train_accel", 0.0)
        seconds = max(cpu, accel) + realized.get("sync", 0.0)
        self._window.append(
            (cpu, accel, seconds / max(1, split.total_targets)))
        del self._window[:-self.trial_window]
        if len(self._window) < self.trial_window:
            return split
        cpu, accel, metric = map(statistics.fmean, zip(*self._window))
        best = self._trial_best
        if best is None or metric < best[1] or split == best[0]:
            self._trial_best = best = (split, metric)
        if self._trial_case is not None:
            case, self._trial_case = self._trial_case, None
            if metric > best[1]:
                return self._revert(case, split, best[0], iteration)
            self._backoff.pop(case, None)
        toward_accel = cpu > accel
        slower, faster = (_TC, _ACCEL) if toward_accel else (_ACCEL, _TC)
        held = self._hold(iteration, slower, faster, max(cpu, accel),
                          min(cpu, accel), split)
        if held is not None:
            return held
        new_split = self._shift_training(split, toward_accel,
                                         threads=False)
        if new_split is not split:
            self._trial_case = slower
        return self._record(
            iteration, slower, faster, "balance_work",
            "training cpu->accel" if toward_accel
            else "training accel->cpu", split, new_split)

    def _hold(self, iteration: int, case: str, fastest: str, top: float,
              runner_up: float, split: WorkloadSplit
              ) -> WorkloadSplit | None:
        """The "none" decision when ``case``, the bottleneck at ``top``
        seconds, is within ``hysteresis`` of ``runner_up`` or cooling
        down (one cooldown iteration is spent); ``None`` when the step
        may move."""
        if top <= runner_up * (1.0 + self.hysteresis):
            return self._record(iteration, case, fastest, "none",
                                "within hysteresis", split, split)
        remaining = self._cooldown.get(case, 0)
        if remaining > 0:
            self._cooldown[case] = remaining - 1
            return self._record(iteration, case, fastest, "none",
                                "case in cooldown", split, split)
        return None

    def _record(self, iteration: int, bottleneck: str, fastest: str,
                action: str, detail: str, split: WorkloadSplit,
                new_split: WorkloadSplit) -> WorkloadSplit:
        """Log one decision; returns ``new_split``."""
        self.decisions.append(DRMDecision(
            iteration=iteration, bottleneck=bottleneck, fastest=fastest,
            action=action, detail=detail, old_split=split,
            new_split=new_split))
        return new_split

    def _revert(self, case: str, split: WorkloadSplit,
                to: WorkloadSplit, iteration: int) -> WorkloadSplit:
        """Undo a move that regressed throughput: back to ``to``, and
        ``case`` cools down. Exponential backoff: a case that keeps
        regressing gets progressively longer cooldowns (cap 64
        iterations)."""
        back = min(64, self._backoff.get(case, 0) * 2
                   or self.cooldown_iterations)
        self._backoff[case] = back
        self._cooldown[case] = back
        self.decisions.append(DRMDecision(
            iteration=iteration, bottleneck=case, fastest="",
            action="revert", detail="move regressed throughput",
            old_split=split, new_split=to))
        return to

    def _algorithm1(self, split: WorkloadSplit, times: StageTimes,
                    iteration: int) -> WorkloadSplit:
        """The verbatim Algorithm-1 decision switch."""
        stage = {
            _SC: times.t_sample_cpu,
            _SA: times.t_sample_accel,
            _LOAD: times.t_load,
            _TC: times.t_train_cpu,
            _ACCEL: times.t_accel,       # Alg. 1 line 1 bundle
        }
        ranked = sorted(stage, key=stage.get, reverse=True)
        bottleneck, fastest = ranked[0], ranked[-1]
        second_fastest = ranked[-2]
        cpu_ranked = sorted(_CPU_TASKS, key=stage.get)
        fastest_cpu = cpu_ranked[0]

        def register(action: str, detail: str,
                     new_split: WorkloadSplit) -> WorkloadSplit:
            return self._record(iteration, bottleneck, fastest, action,
                                detail, split, new_split)

        held = self._hold(iteration, bottleneck, fastest,
                          stage[bottleneck], stage[ranked[1]], split)
        if held is not None:
            return held

        # --- Algorithm 1 switch -----------------------------------------
        if bottleneck == _SA:
            return register("balance_work", "sampling accel->cpu",
                            self._shift_sampling(split, toward_accel=False))
        if bottleneck == _ACCEL:
            return register("balance_work", "training accel->cpu",
                            self._shift_training(split, toward_accel=False))
        if bottleneck == _LOAD:
            return register(
                "balance_thread", f"{fastest_cpu} -> load",
                self._move_threads(split, donor=fastest_cpu, to=_LOAD))
        if bottleneck == _SC:
            if fastest == _SA or (fastest == _ACCEL
                                  and second_fastest == _SA):
                return register("balance_work", "sampling cpu->accel",
                                self._shift_sampling(split,
                                                     toward_accel=True))
            donor = fastest if fastest in _CPU_TASKS else fastest_cpu
            return register(
                "balance_thread", f"{donor} -> sample",
                self._move_threads(split, donor=donor, to=_SC))
        if bottleneck == _TC:
            if fastest == _ACCEL or (fastest == _SA
                                     and second_fastest == _ACCEL):
                return register("balance_work", "training cpu->accel",
                                self._shift_training(split,
                                                     toward_accel=True))
            donor = fastest if fastest in _CPU_TASKS else fastest_cpu
            return register(
                "balance_thread", f"{donor} -> train",
                self._move_threads(split, donor=donor, to=_TC))
        raise ConfigError(f"unhandled bottleneck {bottleneck!r}")

    # ------------------------------------------------------------------
    # balance_work
    # ------------------------------------------------------------------
    def _shift_training(self, split: WorkloadSplit, toward_accel: bool,
                        threads: bool = True) -> WorkloadSplit:
        """Move mini-batch quota between CPU trainer and accelerators.

        The total (paper §IV-A: "the total mini-batch size executed on
        the hybrid system remains the same") is conserved exactly.

        Threads follow work: the runtime allocates CPU worker threads per
        assigned mini-batch, so the CPU trainer's thread pool scales with
        its quota (donated by / returned to the sampler and loader,
        which keep a floor of ``_THREAD_FLOOR`` each). Without this a
        work move toward the CPU always regresses — the trainer would
        run the larger batch on the old, undersized pool. A live plane
        has no pool: ``threads=False`` moves the quota alone.
        """
        n_accel = len(split.accel_targets)
        if n_accel == 0 or not self.hybrid:
            return split
        step_total = max(n_accel, int(round(
            self.config.drm_work_step * self.minibatch_size)))
        per_accel = max(1, step_total // n_accel)
        accel = list(split.accel_targets)
        if toward_accel:
            move = min(split.cpu_targets, per_accel * n_accel)
            if move == 0:
                return split
            base, rem = divmod(move, n_accel)
            for i in range(n_accel):
                accel[i] += base + (1 if i < rem else 0)
            new_cpu = split.cpu_targets - move
        else:
            # accel -> cpu: every accelerator donates equally, floored
            # at the minimum quota.
            moved = 0
            for i in range(n_accel):
                donate = min(per_accel,
                             max(0, accel[i] - MIN_ACCEL_TARGETS))
                accel[i] -= donate
                moved += donate
            if moved == 0:
                return split
            new_cpu = split.cpu_targets + moved
        pool = self._train_pool_for(split, new_cpu) if threads else {}
        return split.with_updates(cpu_targets=new_cpu,
                                  accel_targets=tuple(accel), **pool)

    def _train_pool_for(self, split: WorkloadSplit,
                        new_targets: int) -> dict[str, int]:
        """Thread allocation after the CPU quota changes to
        ``new_targets`` (threads follow work)."""
        if new_targets == 0:
            # Trainer drained: return its threads to the sampler.
            return {"sample_threads": split.sample_threads +
                    split.train_threads,
                    "load_threads": split.load_threads,
                    "train_threads": 0}
        if split.cpu_targets == 0:
            want = max(1, self.total_threads // 8)
        else:
            ratio = new_targets / split.cpu_targets
            want = max(1, int(round(split.train_threads * ratio)))
        delta = want - split.train_threads
        sample, load = split.sample_threads, split.load_threads
        if delta > 0:
            # Donate proportionally from sampler and loader, floors kept.
            avail_s = max(0, sample - _THREAD_FLOOR)
            avail_l = max(0, load - _THREAD_FLOOR)
            avail = avail_s + avail_l
            grant = min(delta, avail)
            take_s = min(avail_s, int(round(
                grant * (avail_s / avail)))) if avail else 0
            take_l = min(avail_l, grant - take_s)
            sample -= take_s
            load -= take_l
            want = split.train_threads + take_s + take_l
        else:
            sample += -delta
        return {"sample_threads": sample, "load_threads": load,
                "train_threads": max(1, want)}

    def _shift_sampling(self, split: WorkloadSplit,
                        toward_accel: bool) -> WorkloadSplit:
        """Move sampling share between CPU and accelerators."""
        if len(split.accel_targets) == 0:
            return split
        step = self.config.drm_work_step
        frac = split.accel_sample_fraction + (step if toward_accel
                                              else -step)
        frac = min(1.0, max(0.0, frac))
        if frac == split.accel_sample_fraction:
            return split
        return split.with_updates(accel_sample_fraction=frac)

    # ------------------------------------------------------------------
    # balance_thread
    # ------------------------------------------------------------------
    def _move_threads(self, split: WorkloadSplit, donor: str,
                      to: str) -> WorkloadSplit:
        """Move ``drm_thread_step`` threads from ``donor`` to ``to``."""
        if donor == to:
            return split
        fields = {_SC: "sample_threads", _LOAD: "load_threads",
                  _TC: "train_threads"}
        if donor not in fields or to not in fields:
            return split
        counts = {
            "sample_threads": split.sample_threads,
            "load_threads": split.load_threads,
            "train_threads": split.train_threads,
        }
        donor_field, to_field = fields[donor], fields[to]
        # Samplers and loaders always keep one thread; the CPU trainer
        # keeps one only while it has work assigned.
        if donor_field == "train_threads":
            floor = 1 if split.cpu_targets > 0 else 0
        else:
            floor = 1
        movable = max(0, counts[donor_field] - floor)
        step = min(self.config.drm_thread_step, movable)
        if step <= 0:
            return split
        counts[donor_field] -= step
        counts[to_field] += step
        return split.with_updates(**counts)
