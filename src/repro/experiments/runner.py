"""Shared run machinery for the experiments.

All experiments compare runs over *identical workload queues* — the
paper's methodology ("when comparing two techniques, the same queues
were used for each experiment").  :func:`run_baseline` executes the
stock-scheduler run, :func:`run_technique` a tuned run, and both return
a :class:`TechniqueOutcome` carrying the simulation result plus the
derived metrics the tables/figures consume.

Identical queues make identical runs common: Table 2's BB[x,2] and
BB[x,3] build equal traces, and so do some error rates of Figure 7.
Both entry points therefore keep a memo of finished outcomes per
:class:`~repro.workloads.workload.Workload` object and simulate an
input only once per experiment (see :func:`_run_memoized`).
"""

from __future__ import annotations

import pickle
import weakref
from dataclasses import dataclass, replace
from typing import Optional

from repro.metrics.fairness import FairnessReport, fairness_report
from repro.metrics.throughput import throughput
from repro.sim.checkpoint import task_checkpoint_manager
from repro.sim.executor import SimulationResult
from repro.telemetry.context import current_recorder
from repro.tuning.pipeline import machine_fingerprint
from repro.workloads.workload import Workload, WorkloadRun
from repro.experiments.config import ExperimentConfig


@dataclass
class TechniqueOutcome:
    """One run's results.

    Attributes:
        name: technique name, or ``"linux"`` for the stock baseline.
        result: the raw simulation result.
        fairness: Table 2's metrics over completed processes.
        instructions: committed instructions within the interval.
        switches: total core switches across all processes.
        runtime: the tuning runtime the simulation actually used, if
            any.  When the run resumed from a checkpoint this is the
            *snapshot's* runtime (carrying the accumulated tuning
            state), and when the run was a memo hit it is the runtime
            of the earlier, identical run; in both cases the one the
            caller passed in stayed unused — read post-run statistics
            from here.

    A memo hit shares ``result``, ``fairness`` and ``runtime`` with the
    earlier outcome, so readers must not mutate them.
    """

    name: str
    result: SimulationResult
    fairness: FairnessReport
    instructions: float
    switches: float
    runtime: object = None

    @property
    def completed(self) -> int:
        return self.fairness.completed


def _outcome(
    name: str,
    result: SimulationResult,
    interval: float,
    runtime=None,
) -> TechniqueOutcome:
    return TechniqueOutcome(
        name,
        result,
        fairness_report(result.completed),
        throughput(result, interval),
        result.total_switches(),
        runtime,
    )


def make_workload(config: ExperimentConfig) -> Workload:
    """The experiment's workload (same seed -> same queues)."""
    return Workload.random(config.slots, seed=config.seed)


#: ``id(workload) -> [(key, outcome), ...]`` for every live Workload
#: that has run; an entry is dropped when its Workload is collected.
_MEMOS: dict = {}


def _memo(workload: Workload) -> list:
    """The finished runs of *workload*, for as long as the object lives.

    Kept outside the object, so a pickled Workload carries none of it:
    every pool or broker task unpickles its own copy and starts empty,
    and a later experiment (or ledger pass) builds a new Workload.
    """
    memo = _MEMOS.get(id(workload))
    if memo is None:
        memo = _MEMOS[id(workload)] = []
        weakref.finalize(workload, _MEMOS.pop, id(workload), None)
    return memo


def _run_memoized(
    name: str,
    config: ExperimentConfig,
    run: WorkloadRun,
    runtime,
    faults,
    checkpoint,
) -> TechniqueOutcome:
    """Simulate *run*, or reuse an identical earlier run of its workload.

    The key is everything the simulation reads besides the queues: the
    executor knobs, the machine, the fresh runtime's pickled bytes
    (``None`` for the baseline) and each benchmark's trace and isolated
    time (:meth:`WorkloadRun.inputs`; traces compare by value, equal
    objects short-circuiting).  A checkpoint, a fault plan or an
    enabled trace recorder always simulates: the run has effects
    beyond its outcome (snapshots, recorded events) or inputs outside
    the key.
    """
    memo = key = None
    if faults is None and checkpoint is None and not current_recorder().enabled:
        memo = _memo(run.workload)
        key = (
            None if runtime is None else pickle.dumps(runtime),
            config.interval,
            config.contention_alpha,
            config.pollution_beta,
            machine_fingerprint(run.machine),
            run.inputs(),
        )
        for seen, outcome in memo:
            if seen == key:
                return replace(outcome, name=name)
    result = run.run(
        config.interval,
        runtime=runtime,
        contention_alpha=config.contention_alpha,
        pollution_beta=config.pollution_beta,
        faults=faults,
        checkpoint=checkpoint,
    )
    outcome = _outcome(
        name, result, config.interval, run.last_simulation.runtime
    )
    if memo is not None:
        memo.append((key, outcome))
    return outcome


def run_baseline(
    config: ExperimentConfig,
    workload: Optional[Workload] = None,
    faults=None,
    checkpoint=None,
) -> TechniqueOutcome:
    """Run the stock-Linux-scheduler baseline.

    Args:
        faults: optional :class:`~repro.sim.faults.FaultPlan` perturbing
            the run (fault-resilience experiments); ``None`` (default)
            runs fault-free.
        checkpoint: optional checkpoint manager or directory; the run
            checkpoints there and resumes from any valid snapshot (see
            :meth:`~repro.workloads.workload.WorkloadRun.run`).

    An identical earlier baseline of the same *workload* object is
    reused instead of simulated again (see :func:`run_technique`).
    """
    workload = workload or make_workload(config)
    run = WorkloadRun(workload, config.resolved_machine())
    return _run_memoized("linux", config, run, None, faults, checkpoint)


def run_technique(
    config: ExperimentConfig,
    strategy_name: str,
    workload: Optional[Workload] = None,
    delta: Optional[float] = None,
    typing_overrides: Optional[dict] = None,
    runtime=None,
    faults=None,
    checkpoint=None,
) -> TechniqueOutcome:
    """Run one phase-based-tuning variant.

    Args:
        strategy_name: e.g. ``"Loop[45]"``.
        delta: override the config's IPC threshold.
        typing_overrides: per-benchmark typings (error injection).
        runtime: override the runtime entirely (e.g. switch-to-all);
            it must be picklable, as its pickled bytes key the memo.
        faults: optional :class:`~repro.sim.faults.FaultPlan` perturbing
            the run; ``None`` (default) runs fault-free.
        checkpoint: optional checkpoint manager or directory; the run
            checkpoints there and resumes from any valid snapshot (see
            :meth:`~repro.workloads.workload.WorkloadRun.run`).

    When an earlier run of the same *workload* object had identical
    inputs (traces, runtime, machine and executor knobs), its outcome
    is returned under *strategy_name* without simulating: the caller's
    *runtime* is then left unused, and ``outcome.runtime`` is the one
    that ran.  With *faults*, *checkpoint* or an enabled trace recorder
    the run is always simulated.
    """
    workload = workload or make_workload(config)
    run = WorkloadRun(
        workload,
        config.resolved_machine(),
        config.strategy(strategy_name),
        typing_overrides=typing_overrides,
    )
    if runtime is None:
        runtime = config.make_runtime(delta)
    return _run_memoized(
        strategy_name, config, run, runtime, faults, checkpoint
    )


def run_technique_point(task: tuple) -> TechniqueOutcome:
    """Harness worker: one technique run from a picklable task tuple.

    ``task`` is ``(config, strategy_name, workload, delta)`` with an
    optional trailing ``faults`` plan; module level so
    :func:`repro.experiments.harness.run_tasks` can ship it to pool
    workers.  Under a durable sweep the harness exports each task's
    checkpoint directory; :func:`task_checkpoint_manager` picks it up
    here, making every pool task resumable mid-simulation.
    """
    config, strategy_name, workload, delta, *rest = task
    faults = rest[0] if rest else None
    return run_technique(
        config,
        strategy_name,
        workload=workload,
        delta=delta,
        faults=faults,
        checkpoint=task_checkpoint_manager(),
    )
