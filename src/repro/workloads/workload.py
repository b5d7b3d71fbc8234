"""Slot-based workloads (Section IV-A2 of the paper).

"Our workloads maintain a constant number of running jobs ... we
maintain a job queue for each workload slot.  That is, if we have a
workload of size 18 then there are 18 queues ... each created
individually from randomly selected benchmarks.  When a workload is
started, the first benchmark in each queue is run.  Upon completion of
any process in a queue, the next job in the queue is immediately
started.  When comparing two techniques, the same queues were used for
each experiment."

A :class:`Workload` is the queue structure (pure data, seeded); a
:class:`WorkloadRun` binds it to one machine + technique and runs it on
the simulator, pre-generating one tuned and one baseline trace per
distinct benchmark so repeated jobs are cheap.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import WorkloadError
from repro.instrument.marker import MarkingStrategy
from repro.sim.checkpoint import CheckpointManager
from repro.sim.executor import Simulation, SimulationResult
from repro.sim.machine import MachineConfig
from repro.sim.process import SimProcess, Trace
from repro.tuning.pipeline import PipelineCache, baseline_binary, tune_program
from repro.workloads.spec import SPEC_BENCHMARKS, spec_benchmark
from repro.workloads.synthetic import SyntheticBenchmark


@dataclass
class Workload:
    """A fixed-size multiprogramming workload.

    Attributes:
        slots: number of simultaneously running jobs (paper: 18-84).
        queues: per-slot benchmark-name sequences.
        seed: the seed the queues were drawn from.
    """

    slots: int
    queues: list
    seed: int

    @classmethod
    def random(
        cls,
        slots: int,
        seed: int = 0,
        queue_length: int = 512,
        benchmarks: Optional[tuple] = None,
    ) -> "Workload":
        """Draw per-slot queues of randomly selected benchmarks.

        Args:
            slots: workload size.
            seed: RNG seed; the same seed reproduces the same queues.
            queue_length: jobs per queue (long enough to never run dry).
            benchmarks: candidate names; the full SPEC-like suite by
                default.
        """
        if slots <= 0:
            raise WorkloadError(f"workload needs at least one slot, got {slots}")
        names = tuple(benchmarks or SPEC_BENCHMARKS)
        rng = random.Random(seed)
        queues = [
            [names[rng.randrange(len(names))] for _ in range(queue_length)]
            for _ in range(slots)
        ]
        return cls(slots, queues, seed)

    def benchmark_names(self) -> set:
        """All distinct benchmark names appearing in any queue."""
        return {name for queue in self.queues for name in queue}


@dataclass
class _PreparedBenchmark:
    benchmark: SyntheticBenchmark
    trace_template: Trace
    isolated_seconds: float


class WorkloadRun:
    """One workload bound to a machine and (optionally) a technique.

    Args:
        workload: the slot/queue structure.
        machine: the AMP to run on.
        strategy: marking strategy for tuned runs; ``None`` runs the
            uninstrumented baseline.
        typing_overrides: optional ``{benchmark_name: BlockTyping}``
            (e.g. with injected clustering error, Figure 7).
        cache: static-pipeline cache; the process-wide default when
            omitted, so sweeps over runtime parameters reuse the
            instrumented programs and traces across runs.
    """

    def __init__(
        self,
        workload: Workload,
        machine: MachineConfig,
        strategy: Optional[MarkingStrategy] = None,
        typing_overrides: Optional[dict] = None,
        cache: Optional[PipelineCache] = None,
    ):
        self.workload = workload
        self.machine = machine
        self.strategy = strategy
        self._prepared: dict = {}
        typing_overrides = typing_overrides or {}

        for name in sorted(workload.benchmark_names()):
            benchmark = spec_benchmark(name)
            if strategy is None:
                trace, isolated = baseline_binary(
                    benchmark.program, machine, benchmark.spec, cache=cache
                )
            else:
                tuned = tune_program(
                    benchmark.program,
                    strategy,
                    machine,
                    benchmark.spec,
                    typing=typing_overrides.get(name),
                    cache=cache,
                )
                trace = tuned.tuned_trace
                isolated = tuned.isolated_seconds
            self._prepared[name] = _PreparedBenchmark(benchmark, trace, isolated)

        self._next_pid = 0
        self._cursor = [0] * workload.slots
        #: The simulation the last :meth:`run` call executed.  On a
        #: checkpoint resume this is the *snapshot's* simulation (whose
        #: runtime carries the accumulated tuning state), not one built
        #: from this object's arguments — callers reading post-run
        #: runtime statistics must go through it.
        self.last_simulation: Optional[Simulation] = None

    def _on_complete(self, proc: SimProcess, now: float) -> SimProcess:
        # Bound method rather than a lambda so simulation snapshots stay
        # picklable; the checkpoint then carries this WorkloadRun (queue
        # cursors, pid counter) along with the simulation state.
        return self._spawn(proc.slot)

    def _spawn(self, slot: int) -> SimProcess:
        queue = self.workload.queues[slot]
        index = self._cursor[slot]
        if index >= len(queue):
            raise WorkloadError(
                f"slot {slot} ran out of queued jobs after {index}; "
                f"increase queue_length"
            )
        self._cursor[slot] = index + 1
        name = queue[index]
        prepared = self._prepared[name]
        # The trace itself is immutable — all consumption state lives in
        # the per-process cursor — so processes share the template
        # directly (and with it the flattened-array cache).
        trace = prepared.trace_template
        self._next_pid += 1
        return SimProcess(
            self._next_pid,
            name,
            trace,
            self.machine.all_cores_mask,
            isolated_time=prepared.isolated_seconds,
            slot=slot,
        )

    def run(
        self,
        interval: float,
        runtime=None,
        scheduler=None,
        contention_alpha: float = 0.4,
        pollution_beta: float = 0.6,
        faults=None,
        checkpoint=None,
        coalesce=None,
    ) -> SimulationResult:
        """Run the workload for *interval* simulated seconds.

        Args:
            runtime: tuning runtime (pass one iff a strategy was given).
            scheduler: defaults to a fresh O(1)-like scheduler.
            contention_alpha / pollution_beta: executor knobs.
            faults: optional :class:`~repro.sim.faults.FaultPlan` (or
                injector) perturbing the run; ``None`` runs fault-free.
            coalesce: macro-quantum coalescing override; ``None`` (the
                default) lets the simulation resolve the
                ``REPRO_NO_COALESCE`` environment kill-switch.  On a
                checkpoint resume the snapshot's mode wins (modulo the
                kill-switch), like every other snapshot argument.
            checkpoint: optional
                :class:`~repro.sim.checkpoint.CheckpointManager` (or a
                directory path).  The run checkpoints at the manager's
                cadence, and — the resume path — when the directory
                already holds a valid snapshot, the run *continues from
                it*, discarding the arguments' fresh state in favour of
                the checkpointed simulation (which carries its own
                WorkloadRun, scheduler, and runtime).
        """
        if checkpoint is not None and isinstance(checkpoint, (str, os.PathLike)):
            checkpoint = CheckpointManager(checkpoint)
        simulation = None
        if checkpoint is not None:
            state = checkpoint.latest_state()
            if state is not None:
                simulation = Simulation.from_snapshot(state)
        if simulation is None:
            simulation = Simulation(
                self.machine,
                scheduler=scheduler,
                runtime=runtime,
                contention_alpha=contention_alpha,
                pollution_beta=pollution_beta,
                on_complete=self._on_complete,
                faults=faults,
                coalesce=coalesce,
            )
            for slot in range(self.workload.slots):
                simulation.add_process(self._spawn(slot), 0.0)
        self.last_simulation = simulation
        result = simulation.run(interval, checkpoint=checkpoint)
        simulation.snapshot_running()
        return result

    def inputs(self) -> tuple:
        """``(name, trace, isolated_seconds)`` per benchmark, by name:
        all that :meth:`run` reads of the benchmarks."""
        return tuple(
            (name, p.trace_template, p.isolated_seconds)
            for name, p in self._prepared.items()
        )

    def isolated_seconds(self, name: str) -> float:
        return self._prepared[name].isolated_seconds

    def prepared(self, name: str) -> _PreparedBenchmark:
        return self._prepared[name]
