"""A pickled result carries the run's outcome, not its instrumented input."""

import copyreg
import io
import pickle
import pickletools

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import make_workload, run_technique_point
from repro.sim.executor import SimulationResult

#: Classes of a process's input: trace trees and their walkers.
INPUT_CLASSES = {"Trace", "Segment", "Repeat", "TraceCursor", "FlatTrace",
                 "FlatCursor"}


@pytest.fixture(scope="module")
def fig6_point():
    """One paper-scale Fig 6 point: seed 101, Loop[45], delta 0.12."""
    config = ExperimentConfig.paper()
    assert config.seed == 101
    return run_technique_point(
        (config, "Loop[45]", make_workload(config), 0.12)
    )


def _pickled_names(blob: bytes) -> set:
    """Every global and string the pickle spells out.  A global's module
    and name are pushed as strings before ``STACK_GLOBAL`` the first
    time they appear (later uses fetch them from the memo), so a class
    that occurs anywhere in the pickle shows up here by name."""
    names = set()
    for op, arg, _ in pickletools.genops(blob):
        if op.name == "GLOBAL":
            names.update(arg.split(" ", 1))
        elif isinstance(arg, str):
            names.add(arg)
    return names


def _process_view(p):
    return (p.pid, p.name, p.completion, p.finished, p.flow_time,
            p.stretch, p.stats, p.arrival, p.isolated_time, p.slot,
            p.affinity, repr(p))


def _outcome_view(outcome, interval):
    result = outcome.result
    return (
        outcome.name,
        outcome.fairness,
        outcome.instructions,
        outcome.switches,
        result.time,
        result.total_switches(),
        result.instructions_before(interval),
        result.throughput_buckets,
        result.idle_time_by_core,
        [_process_view(p) for p in result.completed],
        [_process_view(p) for p in result.running],
        [_process_view(p) for p in result.cancelled],
    )


def test_pickled_outcome_is_the_outcome_only(fig6_point):
    blob = pickle.dumps(fig6_point, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(blob) < 64 * 1024
    assert not _pickled_names(blob) & INPUT_CLASSES
    # The live result is untouched by pickling it.
    assert all(p.trace is not None for p in fig6_point.result.completed)


def test_unpickled_outcome_reads_like_the_original(fig6_point):
    interval = ExperimentConfig.paper().interval
    back = pickle.loads(pickle.dumps(fig6_point))
    assert back.result.completed and back.result.running
    assert _outcome_view(back, interval) == _outcome_view(fig6_point, interval)
    assert all(p.finished for p in back.result.completed)
    assert not any(p.finished for p in back.result.running)
    for p, q in zip(back.result.completed + back.result.running,
                    fig6_point.result.all_processes):
        assert p.trace is None
        assert p.tuner_state.keys() == q.tuner_state.keys()
    # A second round trip is stable.
    again = pickle.loads(pickle.dumps(back))
    assert _outcome_view(again, interval) == _outcome_view(back, interval)


class _FullResultPickler(pickle.Pickler):
    """Pickles a result the way older releases did: every process whole,
    trace and cursor included."""

    def reducer_override(self, obj):
        if type(obj) is SimulationResult:
            return copyreg.__newobj__, (SimulationResult,), dict(obj.__dict__)
        return NotImplemented


def test_full_result_pickle_still_loads(fig6_point):
    interval = ExperimentConfig.paper().interval
    buf = io.BytesIO()
    _FullResultPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(fig6_point)
    blob = buf.getvalue()
    assert "FlatCursor" in _pickled_names(blob)
    back = pickle.loads(blob)
    assert _outcome_view(back, interval) == _outcome_view(fig6_point, interval)
    # Re-pickling an old-form result yields the outcome-only form.
    assert not _pickled_names(pickle.dumps(back)) & INPUT_CLASSES
