"""The discrete-event execution engine.

Runs a set of :class:`~repro.sim.process.SimProcess` jobs on a
:class:`~repro.sim.machine.MachineConfig` under a scheduler, optionally
with a tuning runtime attached (the dynamic half of phase-based tuning).

Execution is quantum-at-a-time per core.  Within a quantum the core
consumes trace segments: phase marks fire at segment entries (and, for
marks embedded in collapsed bodies, at a per-iteration rate), the
runtime may request an affinity change, and a change that excludes the
current core preempts the process and charges the ~1000-cycle migration
cost.  L2-sharing contention inflates the stall portion of a segment's
cycles by a factor proportional to the co-runner's memory intensity.

The runtime attached via ``runtime`` must provide::

    on_mark(process, mark_id, phase_type, core, now) -> MarkAction
    on_process_end(process, now) -> None
    assignment_for(process, phase_type) -> Optional[CoreType]

(See :mod:`repro.tuning.runtime`; ``None`` runs the stock baseline.)
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from heapq import heappop as _heappop, heappush as _heappush
from typing import Callable, Optional

import numpy as np

from repro.errors import (
    AffinitySyscallError,
    CheckpointError,
    FaultError,
    SimulationError,
)
from repro.instrument.phase_mark import MARK_FIRE_CYCLES
from repro.sim.events import EventQueue
from repro.sim.faults import (
    DvfsEvent,
    FaultInjector,
    FaultPlan,
    HotplugEvent,
    MemoryPressureEvent,
)
from repro.sim.flattrace import FlatCursor
from repro.sim.memory import MemoryModel
from repro.sim.machine import MachineConfig
from repro.sim.process import Segment, SimProcess
from repro.sim.scheduler.affinity import MIGRATION_CYCLES, validate_affinity
from repro.sim.scheduler.base import Scheduler
from repro.sim.scheduler.linux_o1 import LinuxO1Scheduler
from repro.taxonomy import cancelled_reason
from repro.telemetry.context import current_recorder
from repro.telemetry.events import PROC_TID_BASE

#: Floor on simulated progress per scheduling decision, to keep the
#: event count bounded even for pathological zero-cost segments.
_MIN_STEP_S = 1e-9

#: Version stamp of Simulation.snapshot_state dicts; bump on any layout
#: change so stale checkpoints are rejected instead of misrestored.
_SNAPSHOT_VERSION = 2

#: Environment kill-switch for macro-quantum coalescing (the CLI's
#: --no-coalesce flag sets it, and pool workers inherit it): any
#: non-empty value forces ``coalesce=False`` wherever the Simulation
#: constructor is left to pick the default.
NO_COALESCE_ENV = "REPRO_NO_COALESCE"

#: Environment kill-switch for segment-batched quantum execution: any
#: non-empty value forces ``batched=False`` (the stepped reference
#: path) wherever the constructor is left to pick the default.
NO_BATCH_ENV = "REPRO_NO_BATCH"

#: Commit-cache miss sentinel (``None`` is a cached negative result).
_MISS = object()

#: Minimum step count before _run_quantum_flat's numpy window engages.
#: Below this the scalar per-step loop is faster (the batch pays ~15
#: small-array numpy calls of fixed overhead); both paths commit
#: bit-identical floats (np.add.accumulate folds left-to-right like the
#: scalar ``t += elapsed`` chain and the elementwise per-step
#: expressions round identically), so the threshold is purely a speed
#: knob — any value picks the same numbers, just via different code.
_NP_WINDOW_MIN = 10


@dataclass(frozen=True)
class MarkAction:
    """What a runtime asked for after a mark fired."""

    affinity: Optional[frozenset] = None
    extra_cycles: float = 0.0


#: Reused no-op action for mark-free segment entries (the overwhelmingly
#: common case in baseline runs).
_NO_ACTION = MarkAction()

#: Reused actions for runtime-less entries, keyed by entry-mark count —
#: the extra cycles depend only on that count.
_ENTRY_ACTIONS: dict = {}


@dataclass
class SimulationResult:
    """Everything a finished (or stopped) simulation observed.

    Attributes:
        machine: the machine simulated.
        time: simulation end time in seconds.
        completed: processes that ran to completion, in completion order.
        running: processes still live at the end.
        cancelled: processes removed by cancellation events, in
            cancellation order (open-system departures; empty for
            closed runs).  Cancelled processes never appear in
            ``completed`` or ``running``.
        throughput_buckets: instructions committed per 1-second bucket.
        idle_time_by_core: seconds each core spent idle.
    """

    machine: MachineConfig
    time: float
    completed: list = field(default_factory=list)
    running: list = field(default_factory=list)
    throughput_buckets: dict = field(default_factory=dict)
    idle_time_by_core: dict = field(default_factory=dict)
    cancelled: list = field(default_factory=list)

    def instructions_before(self, horizon: float) -> float:
        """Instructions committed in ``[0, horizon)``."""
        return sum(
            count
            for bucket, count in self.throughput_buckets.items()
            if bucket < horizon
        )

    @property
    def all_processes(self) -> list:
        return self.completed + self.running

    def total_switches(self) -> float:
        return sum(p.stats.switches for p in self.all_processes)


class Simulation:
    """One simulation run.

    Args:
        machine: the AMP to simulate.
        scheduler: defaults to a fresh :class:`LinuxO1Scheduler`.
        runtime: tuning runtime, or ``None`` for the stock baseline.
        contention_alpha: strength of L2-sharing bandwidth contention
            (0 disables): a memory-intensive co-runner inflates this
            segment's stall cycles by up to this factor.
        pollution_beta: strength of shared-L2 *pollution*: the fraction
            of this segment's L2-resident accesses a fully streaming
            co-runner turns into DRAM misses.  Pollution is what makes
            random co-location (the stock scheduler) expensive for
            cache-resident code and segregation (phase-based tuning)
            valuable — on the paper's machine each core pair shares one
            L2, so a streaming neighbour evicts a cache-resident
            neighbour's working set.
        on_complete: callback ``(process, now) -> Optional[SimProcess]``;
            a returned process is admitted immediately (job queues).
        on_cancel: callback ``(process, now) -> None`` fired when a
            :meth:`cancel_process` event lands; *process* is the
            removed process, or ``None`` when the cancellation missed
            (the job had already completed, never arrived, or the
            scheduler could not remove it).  Open-system engines use
            this for ledger bookkeeping; ``None`` (the default) costs
            nothing.
        faults: optional :class:`~repro.sim.faults.FaultPlan` (or a
            prebuilt :class:`~repro.sim.faults.FaultInjector`).  ``None``
            — and a null plan — leave the run bit-identical to an
            injector-free simulation.
    """

    def __init__(
        self,
        machine: MachineConfig,
        scheduler: Optional[Scheduler] = None,
        runtime=None,
        contention_alpha: float = 0.4,
        pollution_beta: float = 0.6,
        on_complete: Optional[Callable] = None,
        memory: Optional[MemoryModel] = None,
        faults=None,
        batched: Optional[bool] = None,
        coalesce: Optional[bool] = None,
        on_cancel: Optional[Callable] = None,
    ):
        self.machine = machine
        self.scheduler = scheduler or LinuxO1Scheduler()
        self.scheduler.attach(machine, self._wake_core)
        self.runtime = runtime
        self.contention_alpha = contention_alpha
        self.pollution_beta = pollution_beta
        self.memory = memory or MemoryModel()
        self.on_complete = on_complete
        self.on_cancel = on_cancel
        #: Segment-batched quantum execution over flat traces; disable
        #: to force the stepped reference path (golden-equality tests).
        #: ``None`` resolves the REPRO_NO_BATCH kill-switch, the
        #: environment form of the same escape hatch (benchmarks and CI
        #: drive whole processes through the stepped path with it).
        if batched is None:
            batched = not os.environ.get(NO_BATCH_ENV)
        self.batched = batched
        #: Macro-quantum coalescing: runs of provably-stable core turns
        #: execute through a mini event loop with cached per-quantum
        #: commits (see _coalesce_horizon/_run_window).  ``None``
        #: resolves the REPRO_NO_COALESCE kill-switch; the results are
        #: pinned bit-identical to the per-quantum paths either way.
        if coalesce is None:
            coalesce = not os.environ.get(NO_COALESCE_ENV)
        self.coalesce = coalesce

        self._events = EventQueue()
        self._now = 0.0
        # Core ids are dense (validated by MachineConfig), so per-core
        # state lives in flat lists: the quantum loop indexes them far
        # more often than anything else touches them.
        n_cores = len(machine)
        self._core_busy_until = [0.0] * n_cores
        self._core_idle = [True] * n_cores
        self._core_idle_since = [0.0] * n_cores
        self._core_stall_frac = [0.0] * n_cores
        self._core_offline = [False] * n_cores
        self._core_freq_scale = [1.0] * n_cores
        # Effective-L2 shrink per core (memory-pressure faults); 0.0
        # contributes nothing to the stall math.
        self._core_mem_pressure = [0.0] * n_cores
        # Degradation hooks a hardened runtime may expose; resolved once
        # here so the hot path pays no getattr per mark.
        self._notify_affinity = (
            getattr(runtime, "on_affinity_result", None)
            if runtime is not None
            else None
        )
        self._notify_machine = (
            getattr(runtime, "on_machine_event", None)
            if runtime is not None
            else None
        )
        self.faults: Optional[FaultInjector] = None
        if faults is not None:
            if isinstance(faults, FaultPlan):
                self.faults = FaultInjector(faults, machine)
            elif isinstance(faults, FaultInjector):
                self.faults = faults
            else:
                raise FaultError(
                    f"faults must be a FaultPlan or FaultInjector, "
                    f"got {type(faults).__name__}"
                )
            for event in self.faults.scheduled_events():
                self._events.push(event.time, ("fault", event))
            attach = getattr(runtime, "attach_faults", None)
            if attach is not None:
                attach(self.faults)
        # With memory-pressure events in play, _core_turn's inline
        # fast-commit (which omits the pressure term) must stand aside
        # for the full quantum paths.
        self._mem_pressure_possible = (
            self.faults is not None and bool(self.faults.plan.mem_pressure)
        )
        self._l2_neighbors = tuple(
            tuple(machine.l2_neighbors(c.cid)) for c in machine.cores
        )
        self._pollution_penalty = {
            ct.name: self.memory.dram_penalty_cycles(ct) - self.memory.l2_hit_cycles
            for ct in machine.core_types()
        }
        # Per-core execution context, fetched with one index per quantum
        # (everything here is immutable for the life of the simulation;
        # only the DVFS frequency scale stays in its own mutable list).
        # The last slot is the sole L2 neighbour's id when there is
        # exactly one (the paper's pairwise-shared-L2 machines), else -1.
        self._core_exec = tuple(
            (
                core,
                core.ctype.name,
                core.ctype.freq_hz,
                self._l2_neighbors[core.cid],
                self._pollution_penalty[core.ctype.name],
                self._l2_neighbors[core.cid][0]
                if len(self._l2_neighbors[core.cid]) == 1
                else -1,
            )
            for core in machine.cores
        )
        # Effective per-core frequency (base × DVFS scale), kept in sync
        # by _apply_fault; freq_hz * 1.0 is exact, so the cached value
        # always equals the per-quantum product it replaces.
        self._core_freq_eff = [
            core.ctype.freq_hz * 1.0 for core in machine.cores
        ]
        self._core_events = tuple(("core", core.cid) for core in machine.cores)
        self._timeslice = self.scheduler.timeslice
        self._result = SimulationResult(
            machine,
            0.0,
            idle_time_by_core={c.cid: 0.0 for c in machine.cores},
        )
        self._live: set = set()
        # Direct access to the stock scheduler's runqueues lets the
        # per-quantum turn skip the pick/requeue call overhead; any
        # subclass (which may override those methods) keeps the full
        # calls.
        self._sched_queues = (
            self.scheduler._queues
            if type(self.scheduler) is LinuxO1Scheduler
            else None
        )
        # Coalescing machinery.  The commit cache maps one pure
        # mid-step quantum shape — (core, flat-trace identity, step,
        # neighbour stall fraction) — to its fully computed commit;
        # _apply_fault clears it (DVFS/pressure change the per-core
        # cost parameters it bakes in).  The stability floor caches an
        # absolute lower bound on the next process completion;
        # execution only pushes completions later, so it stays valid
        # until a fault or arrival resets it.  The window context
        # bundles each core's immutable turn state behind one index.
        self._commit_cache: dict = {}
        self._stability_floor = -math.inf
        # When a window probe refuses, the time before which probing
        # again is provably useless (the refusal's bound must pass
        # first); the run loop folds it into its probe backoff.  Floor
        # refusals additionally back off exponentially (_probe_backoff
        # doubles, resets on the next opened window): under heavy
        # churn the completion floor is conservative by construction —
        # queue wait is not modeled, so with hundreds of queued
        # processes some bound is nearly always imminent — and probing
        # every quantum would pay the O(processes) floor recompute
        # just to be refused again.
        self._probe_defer = 0.0
        self._probe_backoff = 1.0
        self._window_ctx = None
        if self._sched_queues is not None:
            self._window_ctx = [
                (
                    self._sched_queues[cid],
                    exec_info[1],
                    exec_info[5],
                    exec_info[3],
                    exec_info[4],
                )
                for cid, exec_info in enumerate(self._core_exec)
            ]
        self._coalescing = (
            self.coalesce and batched and self._sched_queues is not None
        )
        # Everything the quantum fast path reads from self, bundled so
        # one attribute fetch + unpack replaces nine lookups.  Mutable
        # members (lists/dicts) are shared references, so updates via
        # self.* stay visible.
        self._hot = (
            self._core_exec,
            self._core_freq_eff,
            self._timeslice,
            self.runtime,
            self._core_idle,
            self._core_stall_frac,
            self.contention_alpha,
            self.pollution_beta,
            self._result.throughput_buckets,
        )
        # Telemetry: the recorder and its category gates are resolved
        # once here, so with the null recorder (the default) every hook
        # point below is a single falsy attribute check and an untraced
        # run executes exactly the float operations it always did.
        rec = current_recorder()
        tr = rec if rec.enabled else None
        self._tr = tr
        if tr is not None:
            self._tr_run = tr.begin_run(f"sim:{machine.name}", clock="sim")
            # Metrics as of construction: snapshot_state ships only the
            # delta beyond this, i.e. what this run itself recorded.
            self._tr_metrics_base = dict(tr.metrics)
            self._tr_exec = tr.wants("exec")
            self._tr_phase = tr.wants("phase")
            self._tr_quantum = tr.wants("quantum")
            self._tr_fault = tr.wants("fault")
            self._tr_opensys = tr.wants("opensys")
            self.scheduler.telemetry = tr if tr.wants("sched") else None
            attach_tr = getattr(runtime, "attach_telemetry", None)
            if attach_tr is not None:
                attach_tr(tr, self._tr_run)
        else:
            self._tr_run = 0
            self._tr_exec = self._tr_phase = False
            self._tr_quantum = self._tr_fault = False
            self._tr_opensys = False

    # -- admission -------------------------------------------------------------

    def add_process(self, proc: SimProcess, at: float = 0.0) -> None:
        """Admit *proc* at time *at*."""
        validate_affinity(proc.affinity, len(self.machine))
        self._events.push(at, ("arrive", proc))

    def cancel_process(self, pid: int, at: float) -> None:
        """Schedule cancellation of process *pid* at time *at*.

        The cancellation enters the event heap like an arrival or a
        fault, so it composes with macro-quantum coalescing the same
        way: a pending cancellation bounds any stability window instead
        of breaking it (DESIGN.md §12/§15).  When it fires, a job still
        waiting in a runqueue is removed and torn down cleanly (runtime
        notified, ledger updated); a job that already completed — or
        one mid-quantum under a scheduler that cannot remove it — makes
        the cancellation a miss, reported to ``on_cancel`` as ``None``.
        Mid-run cancellations therefore take effect at the end of the
        quantum in flight at *at*, which is when the process returns to
        a runqueue.
        """
        self._events.push(at, ("cancel", pid))

    def _wake_core(self, core_id: int, now: float) -> None:
        if self._core_offline[core_id]:
            return
        if self._core_idle[core_id]:
            self._core_idle[core_id] = False
            self._result.idle_time_by_core[core_id] += max(
                0.0, now - self._core_idle_since[core_id]
            )
            self._events.push(max(now, self._core_busy_until[core_id]),
                              ("core", core_id))

    # -- checkpoint/resume ------------------------------------------------------

    def snapshot_state(self) -> dict:
        """A picklable image of everything :meth:`run` mutates.

        Pure read — no RNG draws, no state mutation — so taking
        snapshots never perturbs the run: a simulation run with
        checkpointing enabled stays bit-identical to one without.

        The dict must be pickled in one piece (``save_checkpoint`` does
        this): the processes referenced from the event heap, the
        scheduler runqueues, and the result lists are the *same*
        objects, and a single pickle preserves that sharing.
        """
        runtime = self.runtime
        runtime_state = None
        if runtime is not None:
            snap = getattr(runtime, "snapshot_state", None)
            if snap is not None:
                runtime_state = snap()
        telemetry = None
        tr = self._tr
        if tr is not None:
            run = self._tr_run
            # Only this run's share of the recorder: its own events, and
            # the metrics delta since construction.  A shared recorder's
            # earlier runs (and anything recorded before this simulation
            # existed, e.g. pipeline-cache counters) must not travel, or
            # restoring would double-count them.
            base = self._tr_metrics_base
            telemetry = {
                "run_info": tr.runs.get(run),
                "events": [ev for ev in tr.events if ev[3] == run],
                "metrics": {
                    name: value - base.get(name, 0.0)
                    for name, value in tr.metrics.items()
                    if value != base.get(name, 0.0)
                },
            }
        return {
            "version": _SNAPSHOT_VERSION,
            "machine": self.machine,
            "scheduler": self.scheduler,
            "scheduler_state": self.scheduler.snapshot_state(),
            "runtime": runtime,
            "runtime_state": runtime_state,
            "faults": self.faults,
            "faults_state": (
                self.faults.snapshot_state() if self.faults is not None else None
            ),
            "memory": self.memory,
            "on_complete": self.on_complete,
            # Additive key: snapshots predating the open-system engine
            # restore with .get() to None, which is exactly what closed
            # runs (the only runs that existed) carried.
            "on_cancel": self.on_cancel,
            "contention_alpha": self.contention_alpha,
            "pollution_beta": self.pollution_beta,
            "batched": self.batched,
            "coalesce": self.coalesce,
            "now": self._now,
            "heap": list(self._events._heap),
            "seq": self._events._seq,
            "live": sorted(self._live),
            "result": self._result,
            "core_state": {
                "busy_until": list(self._core_busy_until),
                "idle": list(self._core_idle),
                "idle_since": list(self._core_idle_since),
                "stall_frac": list(self._core_stall_frac),
                "offline": list(self._core_offline),
                "freq_scale": list(self._core_freq_scale),
                "mem_pressure": list(self._core_mem_pressure),
                "freq_eff": list(self._core_freq_eff),
            },
            "telemetry": telemetry,
        }

    @classmethod
    def from_snapshot(cls, state: dict) -> "Simulation":
        """Rebuild a live simulation from a :meth:`snapshot_state` dict
        (typically via :func:`repro.sim.checkpoint.load_checkpoint`).

        The snapshot's own scheduler, runtime, and fault injector are
        re-wired into the new instance, so ``from_snapshot(s).run(t)``
        continues exactly where the snapshot was taken.
        """
        if not isinstance(state, dict) or state.get("version") != _SNAPSHOT_VERSION:
            raise CheckpointError(
                "snapshot version mismatch: expected "
                f"{_SNAPSHOT_VERSION}, got "
                f"{state.get('version') if isinstance(state, dict) else state!r}"
            )
        sim = cls(
            state["machine"],
            scheduler=state["scheduler"],
            runtime=state["runtime"],
            contention_alpha=state["contention_alpha"],
            pollution_beta=state["pollution_beta"],
            on_complete=state["on_complete"],
            on_cancel=state.get("on_cancel"),
            memory=state["memory"],
            faults=state["faults"],
            batched=state["batched"],
            # The kill-switch wins over the snapshot's mode so a run
            # resumed under --no-coalesce really is uncoalesced — the
            # whole point of a field-bisection flag.
            coalesce=(
                False
                if os.environ.get(NO_COALESCE_ENV)
                else state["coalesce"]
            ),
        )
        sim.restore_state(state)
        return sim

    def restore_state(self, state: dict) -> None:
        """Install a :meth:`snapshot_state` image into this simulation.

        The constructor has already attached the scheduler (fresh empty
        runqueues, waker bound) and begun a telemetry run; this replaces
        every piece of dynamic state with the snapshot's and rebuilds
        the derived hot-path caches around it.
        """
        if not isinstance(state, dict) or state.get("version") != _SNAPSHOT_VERSION:
            raise CheckpointError(
                "snapshot version mismatch: expected "
                f"{_SNAPSHOT_VERSION}, got "
                f"{state.get('version') if isinstance(state, dict) else state!r}"
            )
        machine = state["machine"]
        if len(machine) != len(self.machine) or machine.name != self.machine.name:
            raise CheckpointError(
                f"snapshot was taken on machine {machine.name!r} "
                f"({len(machine)} cores); cannot restore into "
                f"{self.machine.name!r} ({len(self.machine)} cores)"
            )
        core = state["core_state"]
        self._now = state["now"]
        self._events = EventQueue()
        self._events._heap = list(state["heap"])
        self._events._seq = state["seq"]
        self._live = set(state["live"])
        self._result = state["result"]
        self._core_busy_until = list(core["busy_until"])
        self._core_idle = list(core["idle"])
        self._core_idle_since = list(core["idle_since"])
        self._core_stall_frac = list(core["stall_frac"])
        self._core_offline = list(core["offline"])
        self._core_freq_scale = list(core["freq_scale"])
        self._core_mem_pressure = list(core["mem_pressure"])
        self._core_freq_eff = list(core["freq_eff"])
        self.on_complete = state["on_complete"]
        self.on_cancel = state.get("on_cancel")
        self.scheduler.restore_state(state["scheduler_state"])
        if self.faults is not None and state["faults_state"] is not None:
            self.faults.restore_state(state["faults_state"])
        runtime = self.runtime
        if runtime is not None and state["runtime_state"] is not None:
            restore = getattr(runtime, "restore_state", None)
            if restore is not None:
                restore(state["runtime_state"])
        # Derived coalescing caches never travel: the commit cache
        # bakes in restored per-core parameters and the floor must be
        # recomputed against the restored queues.
        self._commit_cache = {}
        self._stability_floor = -math.inf
        # Rebuild the derived hot-path bundle around the restored lists
        # (_sched_queues still aliases scheduler._queues: restore_state
        # refills the attach()-built deques in place).
        self._hot = (
            self._core_exec,
            self._core_freq_eff,
            self._timeslice,
            self.runtime,
            self._core_idle,
            self._core_stall_frac,
            self.contention_alpha,
            self.pollution_beta,
            self._result.throughput_buckets,
        )
        tel = state.get("telemetry")
        tr = self._tr
        if tr is not None and tel is not None:
            # Rebase the snapshot's events onto the run id the fresh
            # constructor allocated: on a new recorder both are 0 and
            # the replayed stream is bit-identical; on a shared recorder
            # the resumed run appends under its own id, like any run.
            run = self._tr_run
            if tel["run_info"] is not None:
                tr.runs[run] = tel["run_info"]
            tr.events.extend(
                (ph, cat, name, run, ts, tid, value, args)
                for ph, cat, name, _, ts, tid, value, args in tel["events"]
            )
            metrics = tr.metrics
            for name, value in tel["metrics"].items():
                metrics[name] = metrics.get(name, 0.0) + value

    # -- main loop --------------------------------------------------------------

    def run(self, until: float, checkpoint=None) -> SimulationResult:
        """Run the simulation until time *until* (seconds).

        Args:
            until: horizon in simulated seconds.
            checkpoint: optional
                :class:`~repro.sim.checkpoint.CheckpointManager` (or a
                directory path to build one with default cadence).
                Snapshots are taken between events whenever sim time
                crosses the manager's interval grid; they never change
                what the run computes.
        """
        ckpt = checkpoint
        if ckpt is not None and isinstance(ckpt, (str, os.PathLike)):
            from repro.sim.checkpoint import CheckpointManager

            ckpt = CheckpointManager(ckpt)
        ckpt_due = ckpt.first_due(self._now) if ckpt is not None else float("inf")
        # The event loop runs once per scheduling quantum — hundreds of
        # thousands of iterations per experiment — so it reads the heap
        # directly instead of going through the EventQueue wrappers
        # (pops are time-ordered, so _now only ever moves forward).
        events = self._events
        heap = events._heap
        heappop = _heappop
        core_turn = self._core_turn
        coalescing = self._coalescing
        timeslice = self._timeslice
        # Failed window attempts back off one timeslice so runs that
        # are never coalescible (short horizons, unflattenable traces)
        # pay the probe at most once per quantum, not once per event —
        # and further, to whatever bound caused the refusal (an
        # imminent completion floor, a pending arrival or fault), so
        # churning workloads do not recompute the stability floor once
        # per quantum just to be refused by the same bound again.
        macro_after = -math.inf
        while heap:
            entry = heap[0]
            time = entry[0]
            if time > until:
                break
            if time >= ckpt_due:
                # Between events every invariant holds, so this is the
                # one safe instant to freeze the run.  A crash after
                # this point loses at most [ckpt_due, crash) of work.
                ckpt.save(self, time)
                ckpt_due = ckpt.next_due
            if coalescing and time >= macro_after and entry[2][0] == "core":
                horizon = self._coalesce_horizon(time, ckpt_due)
                if horizon is not None and self._run_window(horizon, until):
                    continue
                macro_after = time + timeslice
                if self._probe_defer > macro_after:
                    macro_after = self._probe_defer
            time, _, payload = heappop(heap)
            if time > self._now:
                self._now = time
            kind = payload[0]
            if kind == "core":
                core_turn(payload[1], time)
            elif kind == "arrive":
                proc = payload[1]
                proc.arrival = time
                self._live.add(proc.pid)
                if self._tr_exec:
                    self._tr.instant(
                        "exec",
                        "start",
                        time,
                        tid=PROC_TID_BASE + proc.pid,
                        args={"pid": proc.pid, "name": proc.name},
                        run=self._tr_run,
                    )
                self.scheduler.enqueue(proc, time)
                if self._tr_opensys:
                    self._tr.instant(
                        "opensys",
                        "arrival",
                        time,
                        tid=PROC_TID_BASE + proc.pid,
                        args={"pid": proc.pid, "name": proc.name},
                        run=self._tr_run,
                    )
                    self._tr.counter(
                        "opensys",
                        "jobs_in_system",
                        time,
                        float(len(self._live)),
                        run=self._tr_run,
                    )
                # The new process's completion/mark bounds are not in
                # the cached stability floor.
                self._stability_floor = -math.inf
            elif kind == "cancel":
                self._do_cancel(payload[1], time)
            elif kind == "fault":
                self._apply_fault(payload[1], time)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event {kind!r}")

        # Close idle accounting at the horizon.
        for cid, idle in enumerate(self._core_idle):
            if idle:
                self._result.idle_time_by_core[cid] += max(
                    0.0, until - self._core_idle_since[cid]
                )
                self._core_idle_since[cid] = until
        self._now = max(self._now, until)
        self._result.time = self._now
        if self._tr_exec:
            for cid in sorted(self._result.idle_time_by_core):
                self._tr.counter(
                    "exec",
                    "idle",
                    self._now,
                    self._result.idle_time_by_core[cid],
                    tid=cid,
                    run=self._tr_run,
                )
        return self._result

    def _core_turn(self, core_id: int, now: float) -> None:
        if self._core_offline[core_id]:
            self._core_idle[core_id] = True
            self._core_idle_since[core_id] = now
            self._core_stall_frac[core_id] = 0.0
            return
        sq = self._sched_queues
        if sq is not None:
            # Stock-scheduler pick, inlined (this core is online — the
            # executor checked — and the offline sets stay in sync).
            sched = self.scheduler
            if now - sched._last_balance >= sched.balance_interval:
                sched._maybe_balance(now)
            queue = sq[core_id]
            proc = queue.popleft() if queue else sched._steal(core_id, now)
        else:
            proc = self.scheduler.pick(core_id, now)
        if proc is None:
            self._core_idle[core_id] = True
            self._core_idle_since[core_id] = now
            self._core_stall_frac[core_id] = 0.0
            return
        # The flat/stepped quantum dispatch and the proc.finished
        # property chain are inlined here: both run once per quantum.
        cursor = proc.cursor
        if self.batched and cursor.__class__ is FlatCursor:
            # Most quanta resume mid-step and end inside that same step.
            # Decide that *before* mutating anything (same float ops as
            # _run_quantum_flat): if so, commit the step right here and
            # skip the call; any other shape delegates with state
            # untouched.
            end = None
            finished = False
            done = cursor.iters_done
            if (
                done > 0.0
                and not cursor.at_entry
                and not self._mem_pressure_possible
            ):
                (
                    core_exec,
                    freq_eff,
                    timeslice,
                    runtime,
                    core_idle,
                    core_stall_frac,
                    contention_alpha,
                    pollution_beta,
                    buckets,
                ) = self._hot
                _, ctype_name, _, neighbors, pollution_penalty, nb = (
                    core_exec[core_id]
                )
                flat = cursor.flat
                pos = cursor.pos
                (
                    remaining_full,
                    seg_instrs,
                    per_iter_overhead,
                    emb_p,
                    compute,
                    stall,
                    l2_resident,
                    raw_stall_frac,
                ) = flat.fastinfo[ctype_name][pos]
                if runtime is None or not emb_p:
                    if nb >= 0:
                        neighbor = (
                            0.0 if core_idle[nb] else core_stall_frac[nb]
                        )
                    else:
                        neighbor = 0.0
                        for other in neighbors:
                            if not core_idle[other]:
                                other_frac = core_stall_frac[other]
                                if other_frac > neighbor:
                                    neighbor = other_frac
                    if neighbor > 0:
                        if contention_alpha > 0 and stall > 0:
                            stall *= 1.0 + contention_alpha * neighbor
                        if pollution_beta > 0 and l2_resident > 0:
                            stall += (
                                pollution_beta
                                * neighbor
                                * l2_resident
                                * pollution_penalty
                            )
                    total_per_iter = compute + stall + per_iter_overhead
                    per_iter_s = total_per_iter / freq_eff[core_id]
                    if per_iter_s < 1e-18:
                        per_iter_s = 1e-18
                    remaining = remaining_full - done
                    fit = timeslice / per_iter_s
                    n = remaining if remaining <= fit else fit
                    if n > 0:
                        elapsed = n * per_iter_s
                        new_done = done + n
                        budget = timeslice - elapsed
                        advanced = remaining_full - new_done <= 1e-9
                        if budget <= _MIN_STEP_S or (
                            advanced and pos + 1 >= flat.n
                        ):
                            proc.current_core = core_id
                            instrs = n * seg_instrs
                            stats = proc.stats
                            stats.instructions += instrs
                            cycles_by_type = stats.cycles_by_type
                            try:
                                cycles_by_type[ctype_name] += (
                                    n * total_per_iter
                                )
                            except KeyError:
                                cycles_by_type[ctype_name] = (
                                    n * total_per_iter
                                )
                            instrs_by_type = stats.instrs_by_type
                            try:
                                instrs_by_type[ctype_name] += instrs
                            except KeyError:
                                instrs_by_type[ctype_name] = instrs
                            stats.mark_overhead_cycles += (
                                n * per_iter_overhead
                            )
                            stats.cpu_time += elapsed
                            bucket = int(now)
                            try:
                                buckets[bucket] += instrs
                            except KeyError:
                                buckets[bucket] = instrs
                            core_stall_frac[core_id] = raw_stall_frac
                            if advanced:
                                pos += 1
                                cursor.pos = pos
                                cursor.iters_done = 0.0
                                cursor.at_entry = pos < flat.n
                                finished = pos >= flat.n
                            else:
                                cursor.iters_done = new_done
                            t = now + elapsed
                            floor = now + _MIN_STEP_S
                            end = t if t > floor else floor
            if end is None:
                end = self._run_quantum_flat(core_id, proc, now, cursor)
                finished = cursor.pos >= cursor.flat.n
        else:
            end = self._run_quantum_stepped(core_id, proc, now)
            finished = cursor.finished
        self._core_busy_until[core_id] = end
        if self._tr_quantum:
            self._tr.span(
                "quantum",
                "q",
                now,
                end - now,
                tid=core_id,
                args={"pid": proc.pid},
                run=self._tr_run,
            )
        # _core_stall_frac keeps the last segment's memory intensity so
        # neighbours sharing the L2 see this core's pressure until it
        # idles or runs something else.
        if finished:
            self._finish(proc, end)
        elif core_id in proc.affinity:
            if sq is not None and core_id not in self.scheduler._offline:
                # Stock-scheduler requeue, inlined: the waker is a no-op
                # for a core that is mid-turn (never idle), leaving just
                # the runqueue append.
                sq[core_id].append(proc)
            else:
                self.scheduler.requeue(proc, core_id, end)
        else:
            self.scheduler.enqueue(proc, end)
        events = self._events
        _heappush(events._heap, (end, events._seq, self._core_events[core_id]))
        events._seq += 1

    # -- macro-quantum coalescing ------------------------------------------------
    #
    # The outer loop pays one heap event per core per quantum.  When the
    # schedule is stable over a window [now, T) — every pending event is
    # an online core's turn on a non-empty runqueue, and no fault,
    # arrival, or checkpoint grid point lands before T — every core turn
    # in the window is the same plain round-robin pop/run/requeue, so
    # the turns run through a tight mini event loop instead.  The mini
    # loop replays the outer loop's exact event order (real heap tuples,
    # continued sequence numbers) and the exact per-turn float
    # operations, so everything it commits — stats, stall fractions,
    # buckets, telemetry quantum spans — is bit-identical to stepping.
    # Soft events inside the window (balance ticks, runtime marks,
    # migrations, completions) execute through the stepped code paths in
    # place; the window bails back to the outer loop only when the event
    # set stops being pure core turns (an arrival admitted, an idle core
    # woken, a runqueue drained).

    def _coalesce_horizon(self, now: float, ckpt_due: float):
        """The stable window end ``T`` for a macro commit starting at
        *now*, or ``None`` when no profitable window exists.

        A window is admissible when every pending event in the heap is
        an online core's turn with a non-empty runqueue (any pending
        arrival or fault event instead caps ``T`` at its time), the
        scheduler vouches for a nonempty quiet region on every such
        core, and the stability floor (earliest possible completion
        across the queued processes) leaves room for at least two
        quanta.  ``T`` itself is bounded only by the hard bit-identity
        boundaries — the checkpoint grid point, the fault plan's next
        timed event, and pending non-core events; everything softer
        (balance ticks, mark firings, completions) the window handles
        in place by replaying the stepped operations exactly, bailing
        back to the outer loop the moment an idle core would wake.
        """
        sq = self._sched_queues
        offline = self._core_offline
        sched = self.scheduler
        horizon = ckpt_due
        for time, _, payload in self._events._heap:
            if payload[0] != "core":
                # A pending arrival/fault bounds the window instead of
                # vetoing it: turns starting before it commute with it.
                if time < horizon:
                    horizon = time
                continue
            cid = payload[1]
            if offline[cid] or not sq[cid]:
                self._probe_defer = 0.0
                return None
            if sched.stability_horizon(cid, now) <= now:
                # The scheduler refuses any quiet region (an overdue
                # balance pass, or a scheduler that never opted in):
                # let the outer loop step the next turn.
                self._probe_defer = 0.0
                return None
        if self.faults is not None:
            h = self.faults.plan.next_event_after(now)
            if h < horizon:
                horizon = h
        # Below two quanta per core the mini loop cannot beat the
        # outer loop's per-event cost.
        min_end = now + 2.0 * self._timeslice
        if horizon < min_end:
            # Capped by a fixed-time bound (arrival, fault, checkpoint
            # grid point).  min_end only grows while the bound stands,
            # so probing again before the bound passes cannot succeed.
            self._probe_defer = horizon
            return None
        if self._stability_floor < min_end:
            self._stability_floor = self._stability_floor_calc(now)
            if self._stability_floor < min_end:
                # A completion is (possibly) imminent; the window would
                # bail after a turn or two, so it is not worth opening.
                # The floor is a fixed absolute time, so re-probing (and
                # paying this O(processes) recompute) before it passes
                # would refuse for the same reason — and because the
                # floor ignores queue wait, churning workloads keep it
                # perpetually imminent, hence the exponential backoff.
                backoff = self._probe_backoff
                defer = now + backoff * (2.0 * self._timeslice)
                if self._stability_floor > defer:
                    defer = self._stability_floor
                self._probe_defer = defer
                if backoff < 64.0:
                    self._probe_backoff = backoff + backoff
                return None
        self._probe_defer = 0.0
        self._probe_backoff = 1.0
        return horizon

    def _stability_floor_calc(self, now: float) -> float:
        """Absolute lower bound on the next process completion across
        every queued process.

        Computed from uncontended cycle prefix sums at each core type's
        fastest online frequency: wall time can only exceed the bound
        (contention, pressure, and mark costs all add cycles; queue
        waits add time), and execution never moves a completion
        earlier, so the bound stays valid until a fault or arrival
        resets it.  Unflattenable traces return *now* — their quanta
        always run the stepped reference path, so windows never open
        around them.
        """
        offline = self._core_offline
        freq_eff = self._core_freq_eff
        fmax: dict = {}
        for cid, info in enumerate(self._core_exec):
            if not offline[cid]:
                name = info[1]
                f = freq_eff[cid]
                if f > fmax.get(name, 0.0):
                    fmax[name] = f
        inf = math.inf
        floor = inf
        for queue in self._sched_queues.values():
            for proc in queue:
                cursor = proc.cursor
                if cursor.__class__ is not FlatCursor:
                    return now
                flat = cursor.flat
                pos = cursor.pos
                if pos >= flat.n:
                    return now
                rem = flat.iters[pos] - cursor.iters_done
                stab = flat.stab
                for name, f in fmax.items():
                    unc, tail = stab[name]
                    t = (rem * unc[pos] + tail[pos]) / f
                    if t < floor:
                        floor = t
        return now + floor if floor is not inf else inf

    def _build_commit(
        self, core_id: int, ctype_name, pollution_penalty, fastrow, neighbor
    ):
        """Precompute one pure mid-step quantum on *core_id*: the step
        runs the full timeslice without advancing.  Returns ``None`` for
        any shape needing the general path; otherwise a tuple whose
        floats are produced by exactly the per-quantum expressions of
        :meth:`_run_quantum_flat`'s fast path, so replaying a cached
        commit is bit-identical to recomputing it.
        """
        (
            remaining_full,
            seg_instrs,
            per_iter_overhead,
            emb_p,
            compute,
            stall,
            l2_resident,
            raw_stall_frac,
        ) = fastrow
        if self.runtime is not None and emb_p:
            return None
        contention_alpha = self.contention_alpha
        pollution_beta = self.pollution_beta
        if neighbor > 0:
            if contention_alpha > 0 and stall > 0:
                stall *= 1.0 + contention_alpha * neighbor
            if pollution_beta > 0 and l2_resident > 0:
                stall += (
                    pollution_beta * neighbor * l2_resident * pollution_penalty
                )
        mem_pressure = self._core_mem_pressure[core_id]
        if mem_pressure > 0.0 and l2_resident > 0:
            stall += mem_pressure * l2_resident * pollution_penalty
        total_per_iter = compute + stall + per_iter_overhead
        per_iter_s = total_per_iter / self._core_freq_eff[core_id]
        if per_iter_s < 1e-18:
            per_iter_s = 1e-18
        timeslice = self._timeslice
        n = timeslice / per_iter_s
        elapsed = n * per_iter_s
        if timeslice - elapsed > _MIN_STEP_S:
            # Degenerate cost: the quantum would continue into further
            # steps; leave the shape to the general loop.
            return None
        return (
            n,
            elapsed,
            n * total_per_iter,
            n * seg_instrs,
            n * per_iter_overhead,
            raw_stall_frac,
            remaining_full,
        )

    def _run_window(self, horizon: float, until: float) -> bool:
        """Run every core turn in ``[front, horizon)`` through a mini
        event loop; returns whether any turn ran.

        The turns are popped off the real heap as their original
        ``(time, seq, payload)`` tuples; re-pushes continue the real
        sequence counter, so the event stream — and with it every
        FIFO tie-break — is identical to the outer loop's.  Turns
        generated inside the window that land at or past the horizon
        (or past *until*) are parked back onto the real heap.

        Balance ticks, runtime mark firings (including migrations),
        and completions all execute *inside* the window through the
        same code paths — and therefore the same float operations and
        sequence numbers — the outer loop would run.  The window only
        hands control back early when the event set stops being pure
        core turns: a completion's arrival, a wake-up of an idle core,
        or a drained runqueue (whose next pick would steal or idle).
        """
        events = self._events
        heap = events._heap
        ctx = self._window_ctx
        (
            core_exec,
            freq_eff,
            timeslice,
            runtime,
            core_idle,
            core_stall_frac,
            contention_alpha,
            pollution_beta,
            buckets,
        ) = self._hot
        cache_get = self._commit_cache.get
        cache = self._commit_cache
        run_flat = self._run_quantum_flat
        run_stepped = self._run_quantum_stepped
        busy = self._core_busy_until
        tr_q = self._tr_quantum
        tr = self._tr
        tr_run = self._tr_run
        sched = self.scheduler
        last_balance = sched._last_balance
        balance_interval = sched.balance_interval
        heappush = _heappush
        heappop = _heappop
        mini: list = []
        while heap and heap[0][0] < horizon:
            mini.append(heappop(heap))
        # Popped in order, so the sorted list is itself a valid heap.
        parked: list = []
        ran = False
        # Locals shadowing hot simulation state for the duration of the
        # window; every call that can read or push events (balance,
        # enqueue, _finish) is bracketed by an events._seq sync, and
        # _now advances only past *processed* turn starts (parked
        # entries keep their place for the outer loop, and checkpoint
        # snapshots taken at the horizon must match the stepped clock).
        seq = events._seq
        pnow = self._now
        while mini:
            entry = heappop(mini)
            s = entry[0]
            if s >= horizon or s > until:
                parked.append(entry)
                continue
            if s > pnow:
                pnow = s
            if s - last_balance >= balance_interval:
                # The periodic balance pass, at exactly the instant and
                # with exactly the state the stepped pick would run it.
                nheap = len(heap)
                events._seq = seq
                sched._maybe_balance(s)
                seq = events._seq
                last_balance = sched._last_balance
                if len(heap) != nheap:
                    # A move woke an idle core: its turn is now pending
                    # on the real heap inside the window.  This turn has
                    # not run; the outer loop re-picks it with the
                    # balance-done guard false.
                    parked.append(entry)
                    parked.extend(mini)
                    break
            cid = entry[2][1]
            queue, ctype_name, nb, neighbors, penalty = ctx[cid]
            if not queue:
                # The runqueue drained mid-window (completion or
                # migration): the next pick would steal or go idle,
                # which only the outer loop does.
                parked.append(entry)
                parked.extend(mini)
                break
            proc = queue.popleft()
            cursor = proc.cursor
            end = None
            finished = False
            if cursor.__class__ is FlatCursor:
                done = cursor.iters_done
                if done > 0.0 and not cursor.at_entry:
                    if nb >= 0:
                        neighbor = (
                            0.0 if core_idle[nb] else core_stall_frac[nb]
                        )
                    else:
                        neighbor = 0.0
                        for other in neighbors:
                            if not core_idle[other]:
                                other_frac = core_stall_frac[other]
                                if other_frac > neighbor:
                                    neighbor = other_frac
                    flat = cursor.flat
                    pos = cursor.pos
                    key = (cid, id(flat), pos, neighbor)
                    commit = cache_get(key, _MISS)
                    if commit is _MISS:
                        commit = self._build_commit(
                            cid,
                            ctype_name,
                            penalty,
                            flat.fastinfo[ctype_name][pos],
                            neighbor,
                        )
                        cache[key] = commit
                    if commit is not None:
                        (
                            n,
                            elapsed,
                            cyc,
                            instrs,
                            movh,
                            sfrac,
                            remaining_full,
                        ) = commit
                        new_done = done + n
                        if remaining_full - new_done > 1e-9:
                            proc.current_core = cid
                            stats = proc.stats
                            stats.instructions += instrs
                            cycles_by_type = stats.cycles_by_type
                            try:
                                cycles_by_type[ctype_name] += cyc
                            except KeyError:
                                cycles_by_type[ctype_name] = cyc
                            instrs_by_type = stats.instrs_by_type
                            try:
                                instrs_by_type[ctype_name] += instrs
                            except KeyError:
                                instrs_by_type[ctype_name] = instrs
                            stats.mark_overhead_cycles += movh
                            stats.cpu_time += elapsed
                            bucket = int(s)
                            try:
                                buckets[bucket] += instrs
                            except KeyError:
                                buckets[bucket] = instrs
                            core_stall_frac[cid] = sfrac
                            cursor.iters_done = new_done
                            t = s + elapsed
                            floor = s + _MIN_STEP_S
                            end = t if t > floor else floor
                if end is None:
                    # Entries, step advances, mark firings, and
                    # degenerate shapes run the real per-quantum path.
                    end = run_flat(cid, proc, s, cursor)
                    finished = cursor.pos >= cursor.flat.n
            else:
                end = run_stepped(cid, proc, s)
                finished = cursor.finished
            busy[cid] = end
            if tr_q:
                tr.events.append(
                    ("X", "quantum", "q", tr_run, s, cid, end - s,
                     {"pid": proc.pid})
                )
            ran = True
            payload = entry[2]
            if finished:
                nheap = len(heap)
                events._seq = seq
                self._finish(proc, end)
                seq = events._seq
                if len(heap) != nheap:
                    # The completion admitted an arrival (pushed by
                    # _finish with the next sequence number, exactly as
                    # stepping would); it must interleave with the
                    # remaining turns, so the window ends here.
                    heappush(heap, (end, seq, payload))
                    seq += 1
                    parked.extend(mini)
                    break
            elif cid in proc.affinity:
                queue.append(proc)
            else:
                # Migration decision (a mark fired inside run_flat):
                # the full enqueue path, exactly as stepping runs it.
                nheap = len(heap)
                events._seq = seq
                sched.enqueue(proc, end)
                seq = events._seq
                if len(heap) != nheap:
                    # The placement woke an idle core.
                    heappush(heap, (end, seq, payload))
                    seq += 1
                    parked.extend(mini)
                    break
            heappush(mini, (end, seq, payload))
            seq += 1
        events._seq = seq
        if pnow > self._now:
            self._now = pnow
        for entry in parked:
            heappush(heap, entry)
        return ran

    # -- quantum execution -------------------------------------------------------

    def _run_quantum_stepped(
        self, core_id: int, proc: SimProcess, start: float
    ) -> float:
        """Reference quantum loop: one trace step per iteration.

        Used for unflattenable traces and as the golden reference for
        :meth:`_run_quantum_flat` (``batched=False`` forces it).  Both
        paths must stay bit-identical — every float operation feeding
        ``t``/``budget``/``n`` cascades through scheduler decisions.
        """
        core, ctype_name, freq_hz, neighbors, pollution_penalty, _ = (
            self._core_exec[core_id]
        )
        # DVFS faults re-clock individual cores; the scale is exactly
        # 1.0 (multiplication is a float no-op) in unfaulted runs.
        freq = freq_hz * self._core_freq_scale[core_id]
        budget = self.scheduler.timeslice
        t = start
        proc.current_core = core_id

        # Invariant state hoisted out of the inner loop: attribute and
        # dict lookups here execute once per quantum, not once per
        # trace step.
        cursor = proc.cursor
        stats = proc.stats
        runtime = self.runtime
        contention_alpha = self.contention_alpha
        pollution_beta = self.pollution_beta
        core_idle = self._core_idle
        core_stall_frac = self._core_stall_frac
        buckets = self._result.throughput_buckets
        # Loop-invariant within the quantum: pressure events apply
        # between quanta, through the event loop.
        mem_pressure = self._core_mem_pressure[core_id]

        while budget > 0 and not cursor.finished:
            seg = cursor.current
            if cursor.at_entry:
                action = self._fire_marks(proc, seg, core, t)
                cost_s = action.extra_cycles / freq
                t += cost_s
                budget -= cost_s
                cursor.at_entry = False
                if action.affinity is not None and action.affinity != proc.affinity:
                    if self.faults is not None and not self._affinity_call_ok(
                        proc, t
                    ):
                        # Injected sched_setaffinity failure: the call
                        # was charged but the mask did not change.
                        continue
                    proc.affinity = validate_affinity(
                        action.affinity, len(self.machine)
                    )
                    if self.faults is not None and self._notify_affinity is not None:
                        self._notify_affinity(proc, True, None, t)
                    if core_id not in proc.affinity:
                        # Core switch: charge migration and preempt.
                        switch_s = MIGRATION_CYCLES / freq
                        stats.switches += 1
                        stats.migrations += 1
                        if self._tr_exec:
                            self._tr.instant(
                                "exec",
                                "migrate",
                                t,
                                tid=PROC_TID_BASE + proc.pid,
                                args={"pid": proc.pid, "from": core_id},
                                run=self._tr_run,
                            )
                        return t + switch_s
                continue

            compute, stall, l2_resident, seg_instrs, raw_stall_frac = (
                seg.cost_tuple(ctype_name)
            )
            neighbor = 0.0
            for other in neighbors:
                if not core_idle[other]:
                    other_frac = core_stall_frac[other]
                    if other_frac > neighbor:
                        neighbor = other_frac
            if neighbor > 0:
                if contention_alpha > 0 and stall > 0:
                    # Bandwidth contention: two memory-intensive phases
                    # on one L2 (and one front-side bus) slow each other
                    # down.
                    stall *= 1.0 + contention_alpha * neighbor
                if pollution_beta > 0 and l2_resident > 0:
                    # Pollution: a streaming co-runner evicts this
                    # segment's L2-resident lines, turning L2 hits into
                    # DRAM misses.
                    stall += pollution_beta * neighbor * l2_resident * pollution_penalty
            if mem_pressure > 0.0 and l2_resident > 0:
                # Memory-pressure fault: the shrunk share of the L2
                # turns that share of resident accesses into DRAM
                # misses, like pollution but from outside the machine.
                stall += mem_pressure * l2_resident * pollution_penalty

            per_iter_overhead = 0.0
            switch_rate = 0.0
            if seg.embedded:
                per_iter_overhead, switch_rate = self._embedded_overhead(
                    proc, seg, runtime
                )

            total_per_iter = compute + stall + per_iter_overhead
            per_iter_s = max(total_per_iter / freq, 1e-18)
            remaining = cursor.remaining_iterations
            fit = budget / per_iter_s
            n = min(remaining, fit)
            if n <= 0:
                n = min(remaining, 1e-9)
            elapsed = n * per_iter_s
            stats.record(ctype_name, n * seg_instrs, n * total_per_iter)
            stats.mark_overhead_cycles += n * per_iter_overhead
            stats.switches += n * switch_rate
            if switch_rate != 0.0 and self._tr_exec:
                self._tr.counter(
                    "exec",
                    "thrash",
                    t,
                    n * switch_rate,
                    tid=PROC_TID_BASE + proc.pid,
                    run=self._tr_run,
                )
            stats.cpu_time += elapsed
            bucket = int(t)
            instrs = n * seg_instrs
            buckets[bucket] = buckets.get(bucket, 0.0) + instrs
            core_stall_frac[core_id] = raw_stall_frac
            cursor.consume(n)
            t += elapsed
            budget -= elapsed
            if budget <= _MIN_STEP_S and not cursor.finished:
                break

        return max(t, start + _MIN_STEP_S)

    def _run_quantum_flat(
        self, core_id: int, proc: SimProcess, start: float, cursor: FlatCursor
    ) -> float:
        """Segment-batched quantum loop over a flat trace.

        Bit-identical to :meth:`_run_quantum_stepped`: windows of
        mark-free steps run through one numpy pipeline whose cumulative
        arrays (``np.add.accumulate``) reproduce the scalar
        ``t += elapsed`` / ``budget -= elapsed`` sequences operation for
        operation; the step straddling the timeslice (or phase-mark)
        boundary — located via the cumulative budget array — and every
        marked step execute through the same scalar expressions as the
        stepped loop.
        """
        (
            core_exec,
            freq_eff,
            timeslice,
            runtime,
            core_idle,
            core_stall_frac,
            contention_alpha,
            pollution_beta,
            buckets,
        ) = self._hot
        core, ctype_name, freq_hz, neighbors, pollution_penalty, nb = (
            core_exec[core_id]
        )
        freq = freq_eff[core_id]
        budget = timeslice
        t = start
        proc.current_core = core_id

        flat = cursor.flat
        pos = cursor.pos
        done = cursor.iters_done
        at_entry = cursor.at_entry
        n_steps = flat.n

        # The neighbour scan reads only *other* cores' state, which no
        # event can change mid-quantum, so it is loop-invariant.  Stall
        # fractions are non-negative, so with a single L2 neighbour the
        # max-scan collapses to one read.
        if nb >= 0:
            neighbor = 0.0 if core_idle[nb] else core_stall_frac[nb]
        else:
            neighbor = 0.0
            for other in neighbors:
                if not core_idle[other]:
                    other_frac = core_stall_frac[other]
                    if other_frac > neighbor:
                        neighbor = other_frac
        # Like the neighbour scan, loop-invariant: pressure events only
        # apply between quanta.
        mem_pressure = self._core_mem_pressure[core_id]

        # Fast path: nearly every quantum resumes mid-step (at_entry
        # cleared, partial iterations done) and the whole timeslice fits
        # inside that one step.  Commit exactly one scalar step — the
        # same float ops as the general loop below — with a minimal
        # prologue, and return if the quantum ends there.  Any other
        # shape falls through with nothing mutated (n <= 0) or with the
        # step committed and budget/pos updated for the general loop.
        if not at_entry and done > 0.0:
            (
                remaining_full,
                seg_instrs,
                per_iter_overhead,
                emb_p,
                compute,
                stall,
                l2_resident,
                raw_stall_frac,
            ) = flat.fastinfo[ctype_name][pos]
            if runtime is None or not emb_p:
                if neighbor > 0:
                    if contention_alpha > 0 and stall > 0:
                        stall *= 1.0 + contention_alpha * neighbor
                    if pollution_beta > 0 and l2_resident > 0:
                        stall += (
                            pollution_beta
                            * neighbor
                            * l2_resident
                            * pollution_penalty
                        )
                if mem_pressure > 0.0 and l2_resident > 0:
                    stall += mem_pressure * l2_resident * pollution_penalty
                total_per_iter = compute + stall + per_iter_overhead
                per_iter_s = total_per_iter / freq
                if per_iter_s < 1e-18:
                    per_iter_s = 1e-18
                remaining = remaining_full - done
                fit = budget / per_iter_s
                n = remaining if remaining <= fit else fit
                if n > 0:
                    elapsed = n * per_iter_s
                    instrs = n * seg_instrs
                    stats = proc.stats
                    stats.instructions += instrs
                    # d[k] = d.get(k, 0.0) + x spelled as try/except:
                    # the key exists after the first commit, and
                    # 0.0 + x == x exactly on the miss.
                    cycles_by_type = stats.cycles_by_type
                    try:
                        cycles_by_type[ctype_name] += n * total_per_iter
                    except KeyError:
                        cycles_by_type[ctype_name] = n * total_per_iter
                    instrs_by_type = stats.instrs_by_type
                    try:
                        instrs_by_type[ctype_name] += instrs
                    except KeyError:
                        instrs_by_type[ctype_name] = instrs
                    stats.mark_overhead_cycles += n * per_iter_overhead
                    stats.cpu_time += elapsed
                    bucket = int(t)
                    try:
                        buckets[bucket] += instrs
                    except KeyError:
                        buckets[bucket] = instrs
                    core_stall_frac[core_id] = raw_stall_frac
                    done += n
                    if remaining_full - done <= 1e-9:
                        pos += 1
                        done = 0.0
                        at_entry = True
                    t += elapsed
                    budget -= elapsed
                    if budget <= _MIN_STEP_S or pos >= n_steps:
                        cursor.pos = pos
                        cursor.iters_done = done
                        cursor.at_entry = at_entry if pos < n_steps else False
                        floor = start + _MIN_STEP_S
                        return t if t > floor else floor

        stats = proc.stats
        (
            segs,
            iters,
            instrs_l,
            ovh_l,
            entry_marked,
            next_entry,
            any_marked,
            next_any,
            emb_multi,
            comp_l,
            stall_l,
            l2_l,
            sfrac_l,
            np_iters,
            np_comp,
            np_stall,
            np_l2,
            np_ovh,
            est_cum,
        ) = flat.cols[ctype_name]
        # Steps needing scalar treatment: with a runtime attached, any
        # mark (entry or embedded) may call into it; without one, only
        # entry marks charge cycles (embedded overhead is a constant
        # per-iteration term already present in the cost arrays).
        if runtime is not None:
            marked = any_marked
            next_marked = next_any
        else:
            marked = entry_marked
            next_marked = next_entry
        apply_alpha = neighbor > 0 and contention_alpha > 0
        apply_beta = neighbor > 0 and pollution_beta > 0
        alpha_factor = 1.0 + contention_alpha * neighbor
        beta_neighbor = pollution_beta * neighbor

        while budget > 0 and pos < n_steps:
            if at_entry:
                if marked[pos]:
                    action = self._fire_marks(proc, segs[pos], core, t)
                    cost_s = action.extra_cycles / freq
                    t += cost_s
                    budget -= cost_s
                    at_entry = False
                    if (
                        action.affinity is not None
                        and action.affinity != proc.affinity
                    ):
                        if self.faults is not None and not self._affinity_call_ok(
                            proc, t
                        ):
                            continue
                        proc.affinity = validate_affinity(
                            action.affinity, len(self.machine)
                        )
                        if (
                            self.faults is not None
                            and self._notify_affinity is not None
                        ):
                            self._notify_affinity(proc, True, None, t)
                        if core_id not in proc.affinity:
                            switch_s = MIGRATION_CYCLES / freq
                            stats.switches += 1
                            stats.migrations += 1
                            if self._tr_exec:
                                self._tr.instant(
                                    "exec",
                                    "migrate",
                                    t,
                                    tid=PROC_TID_BASE + proc.pid,
                                    args={"pid": proc.pid, "from": core_id},
                                    run=self._tr_run,
                                )
                            cursor.pos = pos
                            cursor.iters_done = done
                            cursor.at_entry = False
                            return t + switch_s
                    continue
                # A mark-free entry is an exact no-op in the stepped
                # loop (zero cycles, zero firings); just clear the flag.
                at_entry = False

            # Batch only from a fresh step boundary (done == 0.0): a
            # fully-consumed fresh step always advances the cursor
            # exactly (done' == iterations, residue 0), whereas resuming
            # a partially-consumed step can leave a float residue above
            # the 1e-9 advance tolerance that the stepped loop would
            # execute as an extra mini-step.
            window_end = next_marked[pos] if done == 0.0 else pos
            if window_end - pos >= _NP_WINDOW_MIN:
                # Upper-bound the reachable step count: contention and
                # the 1e-18 time floor only slow steps down, so the
                # uncontended cumulative-cycle prefix cannot undershoot.
                hi = int(
                    np.searchsorted(
                        est_cum, est_cum[pos] + budget * freq, side="right"
                    )
                )
                window_end = min(window_end, hi + 1, pos + 4096)
            if window_end - pos >= _NP_WINDOW_MIN:
                w = window_end
                stall_a = np_stall[pos:w]
                if apply_alpha:
                    stall_a = stall_a * alpha_factor
                if apply_beta:
                    stall_a = stall_a + (beta_neighbor * np_l2[pos:w]) * (
                        pollution_penalty
                    )
                if mem_pressure > 0.0:
                    stall_a = stall_a + (mem_pressure * np_l2[pos:w]) * (
                        pollution_penalty
                    )
                total_a = (np_comp[pos:w] + stall_a) + np_ovh[pos:w]
                per_iter_a = total_a / freq
                np.maximum(per_iter_a, 1e-18, out=per_iter_a)
                rem_a = np_iters[pos:w]
                elapsed_a = rem_a * per_iter_a
                m = w - pos
                # Cumulative budget/time with the scalar accumulation
                # order: add.accumulate is strictly left-to-right.
                b_cum = np.add.accumulate(
                    np.concatenate(((budget,), -elapsed_a))
                )
                t_cum = np.add.accumulate(np.concatenate(((t,), elapsed_a)))
                fits = (b_cum[:m] / per_iter_a) >= rem_a
                fits[1:] &= b_cum[1:m] > _MIN_STEP_S
                blocked = np.flatnonzero(~fits)
                j = int(blocked[0]) if blocked.size else m
                if j > 0:
                    n_l = rem_a[:j].tolist()
                    total_l = total_a[:j].tolist()
                    elapsed_l = elapsed_a[:j].tolist()
                    t_l = t_cum[:j].tolist()
                    instructions = stats.instructions
                    cycles_ct = stats.cycles_by_type.get(ctype_name, 0.0)
                    instrs_ct = stats.instrs_by_type.get(ctype_name, 0.0)
                    mark_overhead = stats.mark_overhead_cycles
                    cpu_time = stats.cpu_time
                    for i in range(j):
                        n = n_l[i]
                        step = pos + i
                        instrs = n * instrs_l[step]
                        instructions += instrs
                        cycles_ct += n * total_l[i]
                        instrs_ct += instrs
                        mark_overhead += n * ovh_l[step]
                        cpu_time += elapsed_l[i]
                        bucket = int(t_l[i])
                        buckets[bucket] = buckets.get(bucket, 0.0) + instrs
                    stats.instructions = instructions
                    stats.cycles_by_type[ctype_name] = cycles_ct
                    stats.instrs_by_type[ctype_name] = instrs_ct
                    stats.mark_overhead_cycles = mark_overhead
                    stats.cpu_time = cpu_time
                    core_stall_frac[core_id] = sfrac_l[pos + j - 1]
                    pos += j
                    done = 0.0
                    at_entry = True
                    t = float(t_cum[j])
                    budget = float(b_cum[j])
                    if budget <= _MIN_STEP_S and pos < n_steps:
                        break
                    continue
                # j == 0: the first step already straddles the boundary.

            compute = comp_l[pos]
            stall = stall_l[pos]
            l2_resident = l2_l[pos]
            seg_instrs = instrs_l[pos]
            raw_stall_frac = sfrac_l[pos]
            if neighbor > 0:
                if contention_alpha > 0 and stall > 0:
                    stall *= 1.0 + contention_alpha * neighbor
                if pollution_beta > 0 and l2_resident > 0:
                    stall += (
                        pollution_beta * neighbor * l2_resident * pollution_penalty
                    )
            if mem_pressure > 0.0 and l2_resident > 0:
                stall += mem_pressure * l2_resident * pollution_penalty

            if runtime is not None and emb_multi[pos]:
                per_iter_overhead, switch_rate = self._embedded_overhead(
                    proc, segs[pos], runtime
                )
            else:
                # ovh_l holds exactly embedded_rate * MARK_FIRE_CYCLES
                # (0.0 for mark-free steps) — what _embedded_overhead
                # returns whenever thrash is impossible (no runtime, or
                # fewer than two embedded marks).
                per_iter_overhead = ovh_l[pos]
                switch_rate = 0.0

            total_per_iter = compute + stall + per_iter_overhead
            # min()/max() spelled as conditionals (value-identical for
            # the non-NaN floats here; saves a builtin call per step).
            per_iter_s = total_per_iter / freq
            if per_iter_s < 1e-18:
                per_iter_s = 1e-18
            remaining = iters[pos] - done
            fit = budget / per_iter_s
            n = remaining if remaining <= fit else fit
            if n <= 0:
                n = min(remaining, 1e-9)
            elapsed = n * per_iter_s
            # stats.record inlined, same field order and float ops
            # (0.0 + x == x exactly, so the try/except miss arm matches
            # the .get(k, 0.0) + x it replaces).
            instrs = n * seg_instrs
            stats.instructions += instrs
            cycles_by_type = stats.cycles_by_type
            try:
                cycles_by_type[ctype_name] += n * total_per_iter
            except KeyError:
                cycles_by_type[ctype_name] = n * total_per_iter
            instrs_by_type = stats.instrs_by_type
            try:
                instrs_by_type[ctype_name] += instrs
            except KeyError:
                instrs_by_type[ctype_name] = instrs
            stats.mark_overhead_cycles += n * per_iter_overhead
            stats.switches += n * switch_rate
            if switch_rate != 0.0 and self._tr_exec:
                self._tr.counter(
                    "exec",
                    "thrash",
                    t,
                    n * switch_rate,
                    tid=PROC_TID_BASE + proc.pid,
                    run=self._tr_run,
                )
            stats.cpu_time += elapsed
            bucket = int(t)
            try:
                buckets[bucket] += instrs
            except KeyError:
                buckets[bucket] = instrs
            core_stall_frac[core_id] = raw_stall_frac
            done += n
            if iters[pos] - done <= 1e-9:
                pos += 1
                done = 0.0
                at_entry = True
            t += elapsed
            budget -= elapsed
            if budget <= _MIN_STEP_S and pos < n_steps:
                break

        cursor.pos = pos
        cursor.iters_done = done
        cursor.at_entry = at_entry if pos < n_steps else False
        floor = start + _MIN_STEP_S
        return t if t > floor else floor

    def _fire_marks(self, proc: SimProcess, seg: Segment, core, now) -> MarkAction:
        """Fire the segment's entry marks (and give embedded marks their
        once-per-entry runtime visit); return the combined action."""
        n_entry = len(seg.entry_marks)
        fired = n_entry + len(seg.embedded)
        cycles = MARK_FIRE_CYCLES * n_entry
        proc.stats.mark_firings += n_entry
        proc.stats.mark_overhead_cycles += cycles
        if self._tr_phase and n_entry:
            # Highest-volume hook point (one event per entry-mark
            # firing): append the raw tuple, bypassing Recorder.instant,
            # to stay inside the tracing overhead budget.
            pid = proc.pid
            tid = PROC_TID_BASE + pid
            run = self._tr_run
            append = self._tr.events.append
            for ref in seg.entry_marks:
                append(
                    ("I", "phase", "phase", run, now, tid, None,
                     {"pid": pid, "phase": ref.phase_type})
                )
        if self.runtime is None:
            if not fired:
                return _NO_ACTION
            action = _ENTRY_ACTIONS.get(n_entry)
            if action is None:
                action = _ENTRY_ACTIONS[n_entry] = MarkAction(extra_cycles=cycles)
            return action

        affinity = None
        extra = cycles
        for ref in seg.entry_marks:
            action = self.runtime.on_mark(proc, ref.mark_id, ref.phase_type, core, now)
            extra += action.extra_cycles
            if action.affinity is not None:
                affinity = action.affinity
        for emb in seg.embedded:
            action = self.runtime.on_mark(proc, emb.mark_id, emb.phase_type, core, now)
            extra += action.extra_cycles
            if action.affinity is not None and affinity is None:
                # Embedded marks may steer too, but an entry mark's
                # request (the section actually being entered) wins.
                affinity = action.affinity
        return MarkAction(affinity=affinity, extra_cycles=extra)

    @staticmethod
    def _embedded_overhead(proc: SimProcess, seg: Segment, runtime):
        """(mark overhead cycles, switch rate) per iteration contributed
        by the segment's embedded marks under *runtime*'s current
        decisions.  Runtime-dependent, so recomputed each quantum."""
        overhead = seg.embedded_rate * MARK_FIRE_CYCLES
        switch_rate = 0.0
        # Thrash needs at least two embedded marks decided to *distinct*
        # core types; with zero or one mark the answer is always the
        # plain fire overhead, no runtime consultation needed.
        if runtime is not None and len(seg.embedded) > 1:
            targets = {}
            for emb in seg.embedded:
                target = runtime.assignment_for(proc, emb.phase_type)
                if target is not None:
                    targets[emb.phase_type] = (target.name, emb.rate)
            names = {name for name, _ in targets.values()}
            if len(names) >= 2:
                # Marks of differing decided targets thrash: every
                # firing of a minority-target mark is a switch.
                dominant = max(targets.values(), key=lambda tr: tr[1])[0]
                thrash = sum(
                    rate for name, rate in targets.values() if name != dominant
                )
                switch_rate += thrash
                overhead += thrash * MIGRATION_CYCLES
        return overhead, switch_rate

    # -- fault handling ----------------------------------------------------------

    def _affinity_call_ok(self, proc: SimProcess, now: float) -> bool:
        """Whether this sched_setaffinity call survives injection; on
        failure the runtime is notified so it can degrade."""
        try:
            self.faults.check_affinity_call(proc.pid, now)
        except AffinitySyscallError as exc:
            if self._tr_fault:
                self._tr.instant(
                    "fault",
                    "affinity-fail",
                    now,
                    tid=PROC_TID_BASE + proc.pid,
                    args={"pid": proc.pid, "errno": exc.errno_name},
                    run=self._tr_run,
                )
            if self._notify_affinity is not None:
                self._notify_affinity(proc, False, exc, now)
            return False
        return True

    def _apply_fault(self, event, now: float) -> None:
        """Apply one scheduled hotplug/DVFS event, refusing transitions
        that would leave the machine unable to run anything."""
        if isinstance(event, HotplugEvent):
            cid = event.core_id
            if event.online:
                if not self._core_offline[cid]:
                    self.faults.note_skipped(event)
                    return
                self._core_offline[cid] = False
                self.scheduler.set_core_offline(cid, False, now)
                self.faults.note_applied(event)
                self._wake_core(cid, now)
            else:
                online = self._core_offline.count(False)
                if self._core_offline[cid] or online <= 1:
                    # Never take down the last online core.
                    self.faults.note_skipped(event)
                    return
                self._core_offline[cid] = True
                self._core_stall_frac[cid] = 0.0
                self.scheduler.set_core_offline(cid, True, now)
                self.faults.note_applied(event)
        elif isinstance(event, DvfsEvent):
            cid = event.core_id
            self._core_freq_scale[cid] = event.scale
            # Same product the stepped path computes per quantum.
            self._core_freq_eff[cid] = self._core_exec[cid][2] * event.scale
            self.faults.note_applied(event)
        elif isinstance(event, MemoryPressureEvent):
            self._core_mem_pressure[event.core_id] = event.shrink
            self.faults.note_applied(event)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown fault event {event!r}")
        # Every fault class invalidates the coalescing caches: DVFS and
        # pressure change the per-core costs baked into commits, and
        # hotplug changes the online set behind the stability floor.
        self._commit_cache.clear()
        self._stability_floor = -math.inf
        if self._tr_fault:
            if isinstance(event, HotplugEvent):
                name = "hotplug"
                args = {"core": event.core_id, "online": event.online}
            elif isinstance(event, DvfsEvent):
                name = "dvfs"
                args = {"core": event.core_id, "scale": event.scale}
            else:
                name = "mem-pressure"
                args = {
                    "core": event.core_id,
                    "shrink": event.shrink,
                    "restored": event.shrink == 0.0,
                }
            self._tr.instant(
                "fault",
                name,
                now,
                tid=event.core_id,
                args=args,
                run=self._tr_run,
            )
        if self._tr_opensys and isinstance(event, HotplugEvent):
            # Open-system breakdown/repair windows are hotplug events;
            # mirror them into the opensys timeline so queue-depth and
            # latency excursions line up with capacity losses.
            self._tr.instant(
                "opensys",
                "breakdown" if not event.online else "repair",
                now,
                tid=event.core_id,
                args={"core": event.core_id},
                run=self._tr_run,
            )
        if self._notify_machine is not None:
            self._notify_machine(event, now, tuple(self._core_freq_scale))

    def _account_throughput(self, t: float, instrs: float) -> None:
        bucket = int(t)
        self._result.throughput_buckets[bucket] = (
            self._result.throughput_buckets.get(bucket, 0.0) + instrs
        )

    def _do_cancel(self, pid: int, now: float) -> None:
        """Dispatch one ``("cancel", pid)`` event (see
        :meth:`cancel_process` for the semantics)."""
        proc = None
        if pid in self._live:
            proc = self.scheduler.remove(pid, now)
        if proc is None:
            # The job completed before the cancellation fired, never
            # arrived, or the scheduler cannot surgically remove it
            # (the conservative base contract) — it runs to completion
            # and the cancellation is a miss.
            if self._tr_opensys:
                self._tr.instant(
                    "opensys",
                    "cancel",
                    now,
                    tid=PROC_TID_BASE + pid,
                    args={"pid": pid, "reason": cancelled_reason("missed")},
                    run=self._tr_run,
                )
            if self.on_cancel is not None:
                self.on_cancel(None, now)
            return
        self._live.discard(pid)
        self._result.cancelled.append(proc)
        if self._tr_opensys:
            self._tr.instant(
                "opensys",
                "cancel",
                now,
                tid=PROC_TID_BASE + proc.pid,
                args={
                    "pid": proc.pid,
                    "name": proc.name,
                    "reason": cancelled_reason("queued"),
                },
                run=self._tr_run,
            )
            self._tr.counter(
                "opensys",
                "jobs_in_system",
                now,
                float(len(self._live)),
                run=self._tr_run,
            )
        if self.runtime is not None:
            # Same teardown as completion: the runtime releases any
            # open measurement session for the departing process.
            self.runtime.on_process_end(proc, now)
        # The removal shrank a runqueue the cached stability floor was
        # computed against; reset it like an arrival does.
        self._stability_floor = -math.inf
        if self.on_cancel is not None:
            self.on_cancel(proc, now)

    def _finish(self, proc: SimProcess, now: float) -> None:
        proc.completion = now
        self._live.discard(proc.pid)
        self._result.completed.append(proc)
        if self._tr_exec:
            stats = proc.stats
            self._tr.instant(
                "exec",
                "end",
                now,
                tid=PROC_TID_BASE + proc.pid,
                args={
                    "pid": proc.pid,
                    "name": proc.name,
                    "instructions": stats.instructions,
                    "cpu_time": stats.cpu_time,
                    "switches": stats.switches,
                    "migrations": stats.migrations,
                    "mark_overhead_cycles": stats.mark_overhead_cycles,
                    "cycles_by_type": dict(stats.cycles_by_type),
                },
                run=self._tr_run,
            )
        if self._tr_opensys:
            self._tr.counter(
                "opensys",
                "jobs_in_system",
                now,
                float(len(self._live)),
                run=self._tr_run,
            )
        if self.runtime is not None:
            self.runtime.on_process_end(proc, now)
        if self.on_complete is not None:
            replacement = self.on_complete(proc, now)
            if replacement is not None:
                self.add_process(replacement, now)

    @property
    def now(self) -> float:
        return self._now

    def live_processes(self) -> int:
        return len(self._live)

    def snapshot_running(self) -> list:
        """Collect still-running processes into the result (call after
        :meth:`run`)."""
        running = []
        seen = {p.pid for p in self._result.completed}
        for queue_proc in self.scheduler.queued_processes():
            if queue_proc.pid not in seen:
                running.append(queue_proc)
        self._result.running = running
        return running
