"""The phase-mark runtime: what executes when a mark fires.

"The code in the phase mark either makes use of previous analysis to
make its core choice or observes the behavior of the code section."

Per process and phase type the state machine is:

1. **explore** — no IPC sample for the current core type yet: open a
   counter measurement over the upcoming section and stay put; with a
   sample here but not on some other core type, switch affinity there so
   the next representative section is measured on it.
2. **decide** — samples exist for every core type: run Algorithm 2 and
   fix the assignment.
3. **steady** — "all future phase marks for that phase type reduce to
   simply making appropriate core switching decisions": request the
   decided core type's affinity mask (a no-op unless it differs).

The optional ``resample_after`` implements the Section VI-B feedback
adaptation: a decided phase type is re-explored after that many firings
so changed core behaviour (other processes coming and going) is tracked.

Hardening (the degradation ladder)
==================================

Against an adversarial environment (:mod:`repro.sim.faults`) the runtime
degrades instead of crashing, in order of escalation:

1. *deferred retry* — a failed counter acquisition is retried at later
   marks, exactly as before, but ``max_monitor_retries`` bounds the
   episode: a counter-starved phase type falls back to ``FREE`` (stock
   scheduling) rather than exploring forever;
2. *outlier rejection* — with ``samples_per_type`` = k > 1, each
   (phase type, core type) pair is measured k times and Algorithm 2
   sees the median, so a corrupt counter read cannot flip a decision;
3. *re-exploration* — hotplug/DVFS events bump the machine epoch; any
   assignment decided under an older epoch is discarded at its next
   mark and explored afresh;
4. *stock fallback* — after ``max_affinity_failures`` consecutive
   failed ``sched_setaffinity`` calls a process stops steering entirely
   and runs under the stock scheduler.

Every degradation is recorded in :attr:`PhaseTuningRuntime
.degradation_log` (per-process, queryable via :meth:`degradations_for`).
All hardening is opt-in or fault-triggered: with the default parameters
and no injector attached, behaviour is bit-identical to the unhardened
runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Optional

from repro.instrument.phase_mark import MARK_MONITOR_CYCLES
from repro.sim.counters import CounterBank
from repro.sim.executor import MarkAction
from repro.sim.faults import DvfsEvent, FaultInjector, MemoryPressureEvent
from repro.sim.machine import MachineConfig
from repro.sim.process import SimProcess
from repro.telemetry.events import PROC_TID_BASE
from repro.tuning.assignment import select_core_checked
from repro.tuning.monitor import PhaseState, SectionMonitor

#: Cycles one sched_setaffinity-style call costs (kernel entry + mask
#: update), charged whenever a mark actually issues the call.
AFFINITY_SYSCALL_CYCLES = 150.0

#: Sentinel: Algorithm 2 found no significant gap, so the phase type is
#: deliberately left unconstrained (see ``pin_ties``).
FREE = "free"


@dataclass(frozen=True)
class DegradationEvent:
    """One rung taken down the degradation ladder.

    Attributes:
        time: simulation time of the degradation.
        pid: affected process, or ``None`` for machine-wide events.
        phase_type: affected phase type, if the degradation is per-type.
        kind: ``"counter-starved"``, ``"affinity-fallback"``,
            ``"re-explore"``, ``"corrupt-sample"``, ``"hotplug"``,
            ``"dvfs"`` or ``"mem-pressure"``.
        detail: human-readable specifics.
    """

    time: float
    pid: Optional[int]
    phase_type: Optional[int]
    kind: str
    detail: str = ""


class PhaseTuningRuntime:
    """The full phase-based tuning runtime.

    Args:
        machine: the AMP being run on (only used to enumerate core types
            and build affinity masks — the runtime itself assumes
            nothing about which type is "better").
        ipc_threshold: Algorithm 2's δ.
        counters: counter bank; a private one is created if omitted.
        resample_after: if set, re-explore a decided phase type after
            this many of its marks fire (feedback adaptation).
        tie_policy: what to do when no adjacent IPC gap exceeds δ and
            Algorithm 2's pick is therefore measurement noise:

            * ``"free"`` (default) — leave the affinity unrestricted
              and let the stock scheduler keep balancing this phase
              type; statistically equivalent to the paper's per-core
              pin landing wherever the process already was, and the
              stablest choice under a closed workload.
            * ``"current"`` — pin to the core type the process is
              measuring on (a literal sticky reading of the per-core
              pin).
            * ``"algorithm"`` — take Algorithm 2's ``c0`` literally
              (noise decides; reproduces the extreme-threshold
              migration collapse of Figure 6 most sharply).
        cycle_metric: what "cycles" means in IPC = instructions/cycles.
            ``"reference"`` (default) counts constant-rate reference
            cycles (TSC-style): a fast core then shows visibly higher
            IPC on compute-bound code (it retires more instructions per
            wall second), while memory-bound code shows near-equal IPC
            on both types — so Algorithm 2 sends exactly the code that
            "saves enough cycles to justify taking the space on the more
            efficient core" to the fast cores and leaves memory-bound
            phases for the slow ones.  ``"core"`` counts actual core
            clock cycles (frequency-scaled); under it compute-bound IPC
            is core-invariant and memory-bound code shows higher IPC on
            slow cores.  Both are measurable with PAPI-era counters; the
            reference metric reproduces the paper's reported behaviour.
        samples_per_type: IPC samples collected per (phase type, core
            type) pair before Algorithm 2 may decide; the *median* of
            the collected samples is used, so k >= 3 rejects a corrupt
            counter read as an outlier.  1 (default) reproduces the
            single-sample behaviour bit for bit.
        max_monitor_retries: bound on consecutive failed counter
            acquisitions while exploring one phase type; when exhausted
            the type degrades to ``FREE`` instead of exploring forever.
            ``None`` (default) retries indefinitely — the paper's
            "programs wait for access to the counters".
        max_affinity_failures: consecutive failed affinity syscalls
            after which a process abandons core steering and runs under
            the stock scheduler (reachable only under fault injection).
    """

    def __init__(
        self,
        machine: MachineConfig,
        ipc_threshold: float = 0.15,
        counters: Optional[CounterBank] = None,
        resample_after: Optional[int] = None,
        min_sample_cycles: float = 10_000.0,
        tie_policy: str = "free",
        monitor_noise: float = 0.02,
        seed: int = 0,
        cycle_metric: str = "reference",
        samples_per_type: int = 1,
        max_monitor_retries: Optional[int] = None,
        max_affinity_failures: int = 3,
    ):
        self.machine = machine
        self.core_types = machine.core_types()
        self.ipc_threshold = ipc_threshold
        self.counters = counters or CounterBank(len(machine))
        self.monitor = SectionMonitor(
            self.counters, min_sample_cycles, noise=monitor_noise, seed=seed
        )
        self.resample_after = resample_after
        if tie_policy not in ("current", "free", "algorithm"):
            raise ValueError(f"unknown tie policy {tie_policy!r}")
        self.tie_policy = tie_policy
        if cycle_metric not in ("reference", "core"):
            raise ValueError(f"unknown cycle metric {cycle_metric!r}")
        self.cycle_metric = cycle_metric
        if samples_per_type < 1:
            raise ValueError(
                f"samples_per_type must be >= 1, got {samples_per_type}"
            )
        self.samples_per_type = samples_per_type
        if max_monitor_retries is not None and max_monitor_retries < 1:
            raise ValueError(
                f"max_monitor_retries must be >= 1 or None, "
                f"got {max_monitor_retries}"
            )
        self.max_monitor_retries = max_monitor_retries
        if max_affinity_failures < 1:
            raise ValueError(
                f"max_affinity_failures must be >= 1, got {max_affinity_failures}"
            )
        self.max_affinity_failures = max_affinity_failures
        self._ref_freq = max(ct.freq_ghz for ct in self.core_types)
        self._freq_by_name = {ct.name: ct.freq_ghz for ct in self.core_types}
        self.decisions = 0
        self.resamples = 0
        # -- degradation-ladder state (inert without faults/bounds) --------
        self.faults: Optional[FaultInjector] = None
        self.machine_epoch = 0
        self.degraded_decisions = 0
        self.invalidations = 0
        self.affinity_errors = 0
        self.rejected_samples = 0
        self.degradation_log: list = []
        self._affinity_failures: dict = {}  # pid -> consecutive failures
        self._affinity_blocked: dict = {}  # pid -> restore attempted?
        # -- telemetry (installed by the executor when tracing) ------------
        self._tr = None
        self._tr_run = 0
        self._build_masks()

    def _build_masks(self) -> None:
        # Affinity masks depend only on the (frozen) machine, so they are
        # built once here rather than on every mark firing.  Not pickled:
        # __setstate__ rebuilds them, which also serves checkpoints
        # written before the runtime kept them.
        self._all_mask = self.machine.all_cores_mask
        self._type_masks = {
            ct.name: self.machine.affinity_of_type(ct) for ct in self.core_types
        }

    # -- fault wiring ------------------------------------------------------

    def attach_faults(self, injector: FaultInjector) -> None:
        """Wire a fault injector into the measurement path.

        Called by the simulation when it was built with a fault plan.
        Only fault *delivery* is wired here — counter-slot sabotage and
        corrupt reads; the hardening knobs (``samples_per_type`` etc.)
        stay whatever the constructor set, so attaching a null plan
        changes nothing.
        """
        self.faults = injector
        self.counters.injector = injector
        self.monitor.injector = injector

    def attach_telemetry(self, recorder, run: int) -> None:
        """Wire a trace recorder into the tuning path (IPC samples,
        Algorithm-2 decisions, degradation-ladder steps).

        Called by the simulation when tracing is enabled; the runtime
        emits nothing — and checks one attribute per site — otherwise.
        """
        self._tr = recorder if recorder.wants("tuning") else None
        self._tr_run = run

    def on_machine_event(self, event, now: float, freq_scales=None) -> None:
        """A hotplug or DVFS event changed the machine underneath us.

        Bumps the machine epoch (decided assignments re-explore at
        their next mark) and, when per-core frequency scales are given,
        refreshes the reference-cycle conversion so new IPC samples are
        normalised against the machine as it now runs.
        """
        self.machine_epoch += 1
        if freq_scales is not None:
            by_name = {}
            for ctype in self.core_types:
                cids = self.machine.cores_of_type(ctype)
                scaled = [ctype.freq_ghz * freq_scales[cid] for cid in cids]
                by_name[ctype.name] = sum(scaled) / len(scaled)
            self._freq_by_name = by_name
            self._ref_freq = max(by_name.values())
        if isinstance(event, DvfsEvent):
            kind = "dvfs"
        elif isinstance(event, MemoryPressureEvent):
            kind = "mem-pressure"
        else:
            kind = "hotplug"
        self._log_degradation(now, None, None, kind, repr(event))

    def on_affinity_result(
        self, proc: SimProcess, ok: bool, error, now: float
    ) -> None:
        """Outcome of one affinity syscall the executor issued for us.

        Consecutive failures per process are counted; at
        ``max_affinity_failures`` the process falls back to the stock
        scheduler (rung 4 of the ladder).  Any success resets the count.
        """
        pid = proc.pid
        if ok:
            self._affinity_failures.pop(pid, None)
            return
        self.affinity_errors += 1
        count = self._affinity_failures.get(pid, 0) + 1
        self._affinity_failures[pid] = count
        if count >= self.max_affinity_failures and pid not in self._affinity_blocked:
            self._affinity_blocked[pid] = False  # restore not yet attempted
            self._log_degradation(
                now,
                pid,
                None,
                "affinity-fallback",
                f"{count} consecutive affinity failures ({error}); "
                f"pid {pid} falls back to the stock scheduler",
            )

    def _log_degradation(
        self,
        now: float,
        pid: Optional[int],
        phase_type: Optional[int],
        kind: str,
        detail: str = "",
    ) -> None:
        self.degradation_log.append(
            DegradationEvent(now, pid, phase_type, kind, detail)
        )
        if self._tr is not None:
            self._tr.instant(
                "tuning",
                "degrade",
                now,
                tid=0 if pid is None else PROC_TID_BASE + pid,
                args={
                    "pid": pid,
                    "phase": phase_type,
                    "kind": kind,
                    "detail": detail,
                },
                run=self._tr_run,
            )
            self._tr.incr("tuning.degradations")

    def degradations_for(self, pid: int) -> list:
        """All logged degradation events affecting process *pid*."""
        return [ev for ev in self.degradation_log if ev.pid == pid]

    # -- checkpoint/resume -------------------------------------------------

    def __getstate__(self):
        """Pickle support: the trace recorder is a live object owned by
        the session; the executor re-attaches telemetry on restore."""
        state = self.__dict__.copy()
        state["_tr"] = None
        del state["_all_mask"], state["_type_masks"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_masks()

    def snapshot_state(self) -> dict:
        """Mutable tuning state for checkpoint/resume.

        Captures live references (counter bank, monitor, logs) rather
        than copies; pickling the snapshot dict — which checkpointing
        always does — freezes them into a consistent deep image.
        Per-(process, phase-type) state lives on ``proc.tuner_state``
        and travels with the process graph, not here.
        """
        return {
            "counters": self.counters,
            "monitor": self.monitor,
            "machine_epoch": self.machine_epoch,
            "decisions": self.decisions,
            "resamples": self.resamples,
            "degraded_decisions": self.degraded_decisions,
            "invalidations": self.invalidations,
            "affinity_errors": self.affinity_errors,
            "rejected_samples": self.rejected_samples,
            "degradation_log": self.degradation_log,
            "affinity_failures": self._affinity_failures,
            "affinity_blocked": self._affinity_blocked,
            "freq_by_name": self._freq_by_name,
            "ref_freq": self._ref_freq,
        }

    def restore_state(self, state: dict) -> None:
        self.counters = state["counters"]
        self.monitor = state["monitor"]
        self.machine_epoch = state["machine_epoch"]
        self.decisions = state["decisions"]
        self.resamples = state["resamples"]
        self.degraded_decisions = state["degraded_decisions"]
        self.invalidations = state["invalidations"]
        self.affinity_errors = state["affinity_errors"]
        self.rejected_samples = state["rejected_samples"]
        self.degradation_log = list(state["degradation_log"])
        self._affinity_failures = dict(state["affinity_failures"])
        self._affinity_blocked = dict(state["affinity_blocked"])
        self._freq_by_name = dict(state["freq_by_name"])
        self._ref_freq = state["ref_freq"]
        if self.faults is not None:
            # Re-wire the injector into the restored measurement path.
            self.counters.injector = self.faults
            self.monitor.injector = self.faults

    # -- state access ------------------------------------------------------

    def _state(self, proc: SimProcess, phase_type: int) -> PhaseState:
        state = proc.tuner_state.get(phase_type)
        if state is None:
            state = PhaseState()
            proc.tuner_state[phase_type] = state
        return state

    def assignment_for(self, proc: SimProcess, phase_type: int):
        """The decided core type for (proc, phase_type), if any.

        Returns ``None`` while undecided and for unconstrained (tie)
        decisions.
        """
        state = proc.tuner_state.get(phase_type)
        # == not `is`: a checkpointed process's restored FREE marker is
        # an equal-but-distinct string object.
        if state is None or state.decided == FREE:
            return None
        return state.decided

    # -- the mark entry point -------------------------------------------------

    def on_mark(
        self,
        proc: SimProcess,
        mark_id: int,
        phase_type: Optional[int],
        core,
        now: float,
    ) -> MarkAction:
        """Handle one mark firing; return the requested action."""
        self._absorb_sample(proc, now)
        if phase_type is None:
            return MarkAction()

        state = self._state(proc, phase_type)
        state.firings += 1

        if state.epoch != self.machine_epoch:
            # The machine changed under us (hotplug/DVFS): anything
            # decided before the change may now be wrong — re-explore.
            had_decision = state.decided is not None
            state.reset()
            state.firings = 1
            state.epoch = self.machine_epoch
            if had_decision:
                self.invalidations += 1
                self._log_degradation(
                    now,
                    proc.pid,
                    phase_type,
                    "re-explore",
                    "machine epoch changed; decision discarded",
                )

        if proc.pid in self._affinity_blocked:
            # Rung 4: affinity syscalls keep failing for this process.
            # Try once to restore the full mask (best effort — the call
            # itself may fail too), then stop steering entirely.
            if not self._affinity_blocked[proc.pid]:
                self._affinity_blocked[proc.pid] = True
                if proc.affinity != self._all_mask:
                    return MarkAction(
                        affinity=self._all_mask,
                        extra_cycles=AFFINITY_SYSCALL_CYCLES,
                    )
            return MarkAction()

        if (
            state.decided is not None
            and self.resample_after is not None
            and state.firings % self.resample_after == 0
        ):
            state.reset()
            state.firings = 1
            self.resamples += 1

        if state.decided is not None:
            if state.decided == FREE:
                mask = self._all_mask
            else:
                mask = self._type_masks[state.decided.name]
            if mask != proc.affinity:
                return MarkAction(
                    affinity=mask, extra_cycles=AFFINITY_SYSCALL_CYCLES
                )
            return MarkAction()

        # Exploring.
        current = core.ctype
        if current.name not in state.samples:
            opened = self.monitor.try_open(proc, phase_type, core, now)
            if opened:
                state.open_failures = 0
                return MarkAction(extra_cycles=MARK_MONITOR_CYCLES)
            if proc.monitor_session is None:
                # A genuine acquisition failure (not merely a still-open
                # measurement): rung 1, the bounded deferred retry.
                state.open_failures += 1
                if (
                    self.max_monitor_retries is not None
                    and state.open_failures >= self.max_monitor_retries
                ):
                    state.decided = FREE
                    self.degraded_decisions += 1
                    self._log_degradation(
                        now,
                        proc.pid,
                        phase_type,
                        "counter-starved",
                        f"{state.open_failures} failed counter "
                        f"acquisitions; degrading to FREE",
                    )
                    if proc.affinity != self._all_mask:
                        return MarkAction(
                            affinity=self._all_mask,
                            extra_cycles=AFFINITY_SYSCALL_CYCLES,
                        )
            return MarkAction()

        missing = [ct for ct in self.core_types if ct.name not in state.samples]
        if missing:
            mask = self._type_masks[missing[0].name]
            return MarkAction(affinity=mask, extra_cycles=AFFINITY_SYSCALL_CYCLES)

        decision = select_core_checked(
            self.core_types, state.samples, self.ipc_threshold
        )
        if decision.significant or self.tie_policy == "algorithm":
            state.decided = decision.core_type
            mask = self._type_masks[decision.core_type.name]
        elif self.tie_policy == "current":
            state.decided = core.ctype
            mask = self._type_masks[core.ctype.name]
        else:
            state.decided = FREE
            mask = self._all_mask
        self.decisions += 1
        if self._tr is not None:
            self._tr.instant(
                "tuning",
                "decide",
                now,
                tid=PROC_TID_BASE + proc.pid,
                args={
                    "pid": proc.pid,
                    "phase": phase_type,
                    "target": getattr(state.decided, "name", state.decided),
                    "significant": decision.significant,
                },
                run=self._tr_run,
            )
            self._tr.incr("tuning.decisions")
        if mask != proc.affinity:
            return MarkAction(affinity=mask, extra_cycles=AFFINITY_SYSCALL_CYCLES)
        return MarkAction()

    def on_process_end(self, proc: SimProcess, now: float) -> None:
        """Release any open measurement when a process exits."""
        self._absorb_sample(proc, now)

    # -- internals ----------------------------------------------------------

    def _absorb_sample(self, proc: SimProcess, now: float = 0.0) -> None:
        sample = self.monitor.close(proc)
        if sample is None:
            return
        phase_type, ctype_name, ipc = sample
        if not math.isfinite(ipc) or ipc <= 0.0:
            # A corrupt read so broken it is not even a number worth
            # taking the median over; drop it on the floor.
            self.rejected_samples += 1
            self._log_degradation(
                now, proc.pid, phase_type, "corrupt-sample", f"ipc={ipc!r}"
            )
            return
        if self.cycle_metric == "reference":
            # Convert instructions-per-core-cycle into instructions per
            # constant-rate reference cycle: wall-clock normalisation.
            ipc *= self._freq_by_name[ctype_name] / self._ref_freq
        if self._tr is not None:
            self._tr.instant(
                "tuning",
                "ipc-sample",
                now,
                tid=PROC_TID_BASE + proc.pid,
                args={
                    "pid": proc.pid,
                    "phase": phase_type,
                    "ctype": ctype_name,
                    "ipc": ipc,
                },
                run=self._tr_run,
            )
            self._tr.incr("tuning.ipc_samples")
        state = self._state(proc, phase_type)
        if state.decided is not None or ctype_name in state.samples:
            return
        if self.samples_per_type <= 1:
            state.samples[ctype_name] = ipc
            return
        # Rung 2: collect k observations and let Algorithm 2 see the
        # median, so one corrupt counter read cannot flip the decision.
        raws = state.raw_samples.setdefault(ctype_name, [])
        raws.append(ipc)
        if len(raws) >= self.samples_per_type:
            state.samples[ctype_name] = median(raws)


class SwitchToAllRuntime:
    """The Figure 4 overhead-measurement runtime.

    "Instead of switching to a specific core, we switch to 'all cores'
    ... the same API calls are made that optimized programs make,
    however ... we give all cores in the system.  Thus, the difference
    in runtime between the unmodified binary and this instrumented
    binary shows the cost of running our phase marks."
    """

    def __init__(self, machine: MachineConfig):
        self.machine = machine
        self._all = machine.all_cores_mask

    def on_mark(self, proc, mark_id, phase_type, core, now) -> MarkAction:
        return MarkAction(
            affinity=self._all, extra_cycles=AFFINITY_SYSCALL_CYCLES
        )

    def on_process_end(self, proc, now) -> None:  # noqa: D401 - trivial
        """Nothing to clean up."""

    def assignment_for(self, proc, phase_type):
        return None
