"""The per-workload simulation memo of ``repro.experiments.runner``.

``run_baseline`` and ``run_technique`` reuse a finished outcome when an
earlier run of the same Workload object had identical inputs.  These
tests pin that a hit is indistinguishable from a fresh run, that every
input the simulation reads separates two runs, and that runs with
effects beyond their outcome always simulate.
"""

import gc
import pickle

import pytest

from repro.analysis.block_typing import StaticBlockTyper, inject_clustering_error
from repro.experiments import ExperimentConfig
from repro.experiments import runner
from repro.experiments.runner import make_workload, run_baseline, run_technique
from repro.sim.executor import Simulation
from repro.sim.faults import FaultPlan
from repro.telemetry.context import set_recorder
from repro.telemetry.recorder import TraceRecorder
from repro.tuning.pipeline import typed_blocks
from repro.tuning.runtime import PhaseTuningRuntime
from repro.workloads.spec import spec_benchmark
from repro.workloads.workload import WorkloadRun

QUICK = ExperimentConfig(slots=4, interval=20.0, seed=101)
STRATEGY = "Loop[45]"


class _OtherRuntime(PhaseTuningRuntime):
    """Same state as the default runtime, different class."""


@pytest.fixture
def simulations(monkeypatch):
    """Every Simulation whose ``run`` was called, in call order."""
    ran = []
    real = Simulation.run

    def counted(self, *args, **kwargs):
        ran.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Simulation, "run", counted)
    return ran


def _error_overrides(workload, error):
    typer = StaticBlockTyper(num_types=2)
    return {
        name: inject_clustering_error(
            typed_blocks(spec_benchmark(name).program, typer), error, seed=7
        )
        for name in sorted(workload.benchmark_names())
    }


#: One input changed per case: ``(config, run_technique kwargs)``.
CHANGED_INPUTS = {
    "delta": lambda w: (QUICK, {"delta": QUICK.ipc_threshold + 0.1}),
    "interval": lambda w: (QUICK.with_(interval=25.0), {}),
    "alpha": lambda w: (QUICK.with_(contention_alpha=0.5), {}),
    "beta": lambda w: (QUICK.with_(pollution_beta=0.5), {}),
    "runtime-class": lambda w: (
        QUICK,
        {
            "runtime": _OtherRuntime(
                QUICK.resolved_machine(),
                QUICK.ipc_threshold,
                tie_policy=QUICK.tie_policy,
            )
        },
    ),
    "typing": lambda w: (QUICK, {"typing_overrides": _error_overrides(w, 0.3)}),
}


@pytest.mark.parametrize("change", sorted(CHANGED_INPUTS))
def test_any_changed_input_simulates_again(simulations, change):
    workload = make_workload(QUICK)
    first = run_technique(QUICK, STRATEGY, workload=workload)
    config, kwargs = CHANGED_INPUTS[change](workload)
    other = run_technique(config, STRATEGY, workload=workload, **kwargs)
    assert len(simulations) == 2
    assert other.result is not first.result


def test_typing_case_really_changes_a_trace():
    workload = make_workload(QUICK)
    machine = QUICK.resolved_machine()
    plain = WorkloadRun(workload, machine, QUICK.strategy(STRATEGY))
    erred = WorkloadRun(
        workload,
        machine,
        QUICK.strategy(STRATEGY),
        typing_overrides=_error_overrides(workload, 0.3),
    )
    assert plain.inputs() != erred.inputs()


def _with_checkpoint(tmp_path):
    return {"checkpoint": str(tmp_path / "ckpt")}


def _with_faults(tmp_path):
    # A plan with no events perturbs nothing, yet it is still an input
    # the key does not hold.
    return {"faults": FaultPlan.scaled(0.0, QUICK.resolved_machine(), QUICK.interval)}


@pytest.mark.parametrize("bypass", [_with_checkpoint, _with_faults])
def test_checkpoint_and_faults_always_simulate(simulations, tmp_path, bypass):
    workload = make_workload(QUICK)
    first = run_technique(QUICK, STRATEGY, workload=workload)
    again = run_technique(QUICK, STRATEGY, workload=workload, **bypass(tmp_path))
    assert len(simulations) == 2
    assert again.result is not first.result
    baseline = run_baseline(QUICK, workload)
    run_baseline(QUICK, workload, **bypass(tmp_path / "baseline"))
    assert len(simulations) == 4
    # The bypassed runs were not remembered either: a plain repeat hits
    # the first plain runs.
    assert run_technique(QUICK, STRATEGY, workload=workload).result is first.result
    assert run_baseline(QUICK, workload).result is baseline.result
    assert len(simulations) == 4


def test_enabled_recorder_always_simulates(simulations):
    workload = make_workload(QUICK)
    first = run_technique(QUICK, STRATEGY, workload=workload)
    previous = set_recorder(TraceRecorder())
    try:
        traced = run_technique(QUICK, STRATEGY, workload=workload)
    finally:
        set_recorder(previous)
    assert len(simulations) == 2
    assert traced.result is not first.result


def _observed(outcome):
    """Everything an experiment reads of an outcome, by value."""
    result = outcome.result
    return (
        outcome.fairness,
        outcome.instructions,
        outcome.switches,
        result.time,
        result.throughput_buckets,
        result.idle_time_by_core,
        [
            (p.pid, p.name, p.slot, p.arrival, p.completion, p.finished, p.stats)
            for p in result.completed + result.running + result.cancelled
        ],
        outcome.runtime.decisions if outcome.runtime is not None else None,
    )


def test_hit_carries_callers_name_and_equals_fresh_run(simulations):
    workload = make_workload(QUICK)
    first = run_technique(QUICK, "BB[10,2]", workload=workload)
    hit = run_technique(QUICK, "BB[10,3]", workload=workload)
    assert len(simulations) == 1
    assert (first.name, hit.name) == ("BB[10,2]", "BB[10,3]")
    assert hit.result is first.result
    fresh = run_technique(QUICK, "BB[10,3]", workload=make_workload(QUICK))
    assert len(simulations) == 2
    assert fresh.name == hit.name
    assert _observed(hit) == _observed(fresh)

    baseline = run_baseline(QUICK, workload)
    repeat = run_baseline(QUICK, workload)
    assert len(simulations) == 3
    assert repeat.name == "linux" and repeat.result is baseline.result
    assert _observed(repeat) == _observed(run_baseline(QUICK, make_workload(QUICK)))


def test_pickled_workload_is_unchanged_by_runs(simulations):
    workload = make_workload(QUICK)
    before = pickle.dumps(workload)
    run_baseline(QUICK, workload)
    run_technique(QUICK, STRATEGY, workload=workload)
    run_technique(QUICK, STRATEGY, workload=workload)
    assert len(simulations) == 2
    assert pickle.dumps(workload) == before
    # An unpickled copy, like each pool or broker task's, remembers
    # nothing and simulates again.
    run_technique(QUICK, STRATEGY, workload=pickle.loads(before))
    assert len(simulations) == 3


def test_memo_is_dropped_with_its_workload():
    workload = make_workload(QUICK)
    run_technique(QUICK, STRATEGY, workload=workload)
    key = id(workload)
    assert len(runner._MEMOS[key]) == 1
    del workload
    gc.collect()
    assert key not in runner._MEMOS


def test_outcome_runtime_is_the_runtime_that_ran(simulations):
    workload = make_workload(QUICK)
    ran = QUICK.make_runtime()
    first = run_technique(QUICK, STRATEGY, workload=workload, runtime=ran)
    assert first.runtime is ran is simulations[0].runtime
    assert ran.decisions > 0

    unused = QUICK.make_runtime()
    hit = run_technique(QUICK, STRATEGY, workload=workload, runtime=unused)
    assert len(simulations) == 1
    assert hit.runtime is ran
    assert unused.decisions == 0
