"""Unit tests for the phase-mark runtime state machine."""

import pickle

import pytest

from repro.sim import core2quad_amp
from repro.sim.cost_model import CostVector
from repro.sim.process import Segment, SimProcess, Trace
from repro.tuning.runtime import FREE, PhaseTuningRuntime, SwitchToAllRuntime


def _proc(machine, pid=1):
    vector = CostVector.zero(machine.core_types())
    vector.instrs = 1.0
    trace = Trace((Segment("s", None, 1.0, vector),))
    return SimProcess(pid, "p", trace, machine.all_cores_mask)


def _runtime(machine, delta=0.1, **kw):
    kw.setdefault("monitor_noise", 0.0)
    kw.setdefault("min_sample_cycles", 100.0)
    return PhaseTuningRuntime(machine, delta, **kw)


def _feed_sample(proc, ctype_name, instrs, cycles):
    proc.stats.record(ctype_name, instrs, cycles)


def test_explore_then_decide_memory_bound(machine):
    """Walk the full state machine: sample fast, sample slow, decide.

    Core-cycle IPCs 0.2 (fast) and 0.3 (slow) become reference IPCs 0.2
    and 0.2: a tie under the reference metric, so the default tie policy
    leaves the phase unrestricted.
    """
    runtime = _runtime(machine, delta=0.05)
    proc = _proc(machine)
    fast_core, slow_core = machine.cores[0], machine.cores[2]

    # First firing on a fast core: opens a measurement, stays put.
    action = runtime.on_mark(proc, 0, 1, fast_core, 0.0)
    assert action.affinity is None
    _feed_sample(proc, "fast", 2000.0, 10_000.0)  # IPC 0.2.

    # Second firing: absorbs the fast sample, steers toward slow.
    action = runtime.on_mark(proc, 0, 1, fast_core, 1.0)
    assert action.affinity == frozenset({2, 3})
    proc.affinity = action.affinity

    # Third firing on slow: opens the slow measurement.
    action = runtime.on_mark(proc, 0, 1, slow_core, 2.0)
    assert action.affinity is None
    _feed_sample(proc, "slow", 3000.0, 10_000.0)  # IPC 0.3.

    # Fourth firing: decides.  Reference IPCs tie -> unconstrained.
    action = runtime.on_mark(proc, 0, 1, slow_core, 3.0)
    assert proc.tuner_state[1].decided is FREE
    assert action.affinity == machine.all_cores_mask


def test_decides_fast_for_compute_bound(machine):
    """Equal core-cycle IPCs: the fast core wins under the reference
    metric (it retires more per wall second)."""
    runtime = _runtime(machine, delta=0.15)
    proc = _proc(machine)
    fast_core, slow_core = machine.cores[0], machine.cores[2]

    runtime.on_mark(proc, 0, 1, fast_core, 0.0)
    _feed_sample(proc, "fast", 8000.0, 10_000.0)  # IPC 0.8.
    runtime.on_mark(proc, 0, 1, fast_core, 1.0)
    runtime.on_mark(proc, 0, 1, slow_core, 2.0)
    _feed_sample(proc, "slow", 8000.0, 10_000.0)  # IPC 0.8 core = 0.53 ref.
    runtime.on_mark(proc, 0, 1, slow_core, 3.0)

    decided = proc.tuner_state[1].decided
    assert decided is not FREE
    assert decided.name == "fast"


def test_steady_state_switches_only(machine):
    runtime = _runtime(machine)
    proc = _proc(machine)
    state = runtime._state(proc, 2)
    state.decided = machine.core_types()[1]  # Pinned slow.
    action = runtime.on_mark(proc, 0, 2, machine.cores[0], 0.0)
    assert action.affinity == frozenset({2, 3})
    proc.affinity = action.affinity
    # Already on the right mask: no-op.
    action = runtime.on_mark(proc, 0, 2, machine.cores[2], 1.0)
    assert action.affinity is None


def test_untyped_mark_is_noop(machine):
    runtime = _runtime(machine)
    action = runtime.on_mark(_proc(machine), 0, None, machine.cores[0], 0.0)
    assert action.affinity is None
    assert action.extra_cycles == 0.0


def test_per_phase_type_state_is_independent(machine):
    runtime = _runtime(machine)
    proc = _proc(machine)
    runtime.on_mark(proc, 0, 0, machine.cores[0], 0.0)
    runtime.on_mark(proc, 1, 1, machine.cores[0], 1.0)
    assert set(proc.tuner_state) == {0, 1}


def test_assignment_for(machine):
    runtime = _runtime(machine)
    proc = _proc(machine)
    assert runtime.assignment_for(proc, 0) is None
    state = runtime._state(proc, 0)
    state.decided = FREE
    assert runtime.assignment_for(proc, 0) is None
    state.decided = machine.core_types()[0]
    assert runtime.assignment_for(proc, 0).name == "fast"


def test_pin_ties_policy(machine):
    runtime = _runtime(machine, delta=0.5, tie_policy="algorithm")
    proc = _proc(machine)
    fast_core, slow_core = machine.cores[0], machine.cores[2]
    runtime.on_mark(proc, 0, 1, fast_core, 0.0)
    _feed_sample(proc, "fast", 5000.0, 10_000.0)
    runtime.on_mark(proc, 0, 1, fast_core, 1.0)
    runtime.on_mark(proc, 0, 1, slow_core, 2.0)
    _feed_sample(proc, "slow", 5000.0, 10_000.0)
    runtime.on_mark(proc, 0, 1, slow_core, 3.0)
    # Even a pure tie pins under the literal-algorithm policy.
    assert proc.tuner_state[1].decided is not FREE


def test_tie_policy_current_pins_measuring_type(machine):
    runtime = _runtime(machine, delta=5.0, tie_policy="current")
    proc = _proc(machine)
    fast_core, slow_core = machine.cores[0], machine.cores[2]
    runtime.on_mark(proc, 0, 1, fast_core, 0.0)
    _feed_sample(proc, "fast", 5000.0, 10_000.0)
    runtime.on_mark(proc, 0, 1, fast_core, 1.0)
    runtime.on_mark(proc, 0, 1, slow_core, 2.0)
    _feed_sample(proc, "slow", 5000.0, 10_000.0)
    decision_action = runtime.on_mark(proc, 0, 1, slow_core, 3.0)
    assert proc.tuner_state[1].decided.name == "slow"  # Where it measured.


def test_bad_tie_policy_rejected(machine):
    with pytest.raises(ValueError, match="tie policy"):
        PhaseTuningRuntime(machine, tie_policy="bogus")


def test_bad_cycle_metric_rejected(machine):
    with pytest.raises(ValueError, match="cycle metric"):
        PhaseTuningRuntime(machine, cycle_metric="bogus")


def test_core_cycle_metric_prefers_slow_for_memory(machine):
    runtime = _runtime(machine, delta=0.05, cycle_metric="core")
    proc = _proc(machine)
    fast_core, slow_core = machine.cores[0], machine.cores[2]
    runtime.on_mark(proc, 0, 1, fast_core, 0.0)
    _feed_sample(proc, "fast", 2000.0, 10_000.0)  # IPC 0.2.
    runtime.on_mark(proc, 0, 1, fast_core, 1.0)
    runtime.on_mark(proc, 0, 1, slow_core, 2.0)
    _feed_sample(proc, "slow", 3000.0, 10_000.0)  # IPC 0.3.
    runtime.on_mark(proc, 0, 1, slow_core, 3.0)
    assert proc.tuner_state[1].decided.name == "slow"


def test_feedback_resampling(machine):
    runtime = _runtime(machine, resample_after=3)
    proc = _proc(machine)
    state = runtime._state(proc, 1)
    state.decided = machine.core_types()[0]
    for i in range(3):
        runtime.on_mark(proc, 0, 1, machine.cores[0], float(i))
    # The third firing triggered a reset back to exploration.
    assert runtime.resamples == 1
    assert proc.tuner_state[1].decided is None


def test_switch_to_all_runtime(machine):
    runtime = SwitchToAllRuntime(machine)
    proc = _proc(machine)
    action = runtime.on_mark(proc, 0, 1, machine.cores[0], 0.0)
    assert action.affinity == machine.all_cores_mask
    assert action.extra_cycles > 0
    assert runtime.assignment_for(proc, 1) is None
    runtime.on_process_end(proc, 1.0)  # No-op, must not raise.


def test_pickled_runtime_rebuilds_its_masks(machine):
    """The affinity masks a runtime builds once are left out of its
    pickle, which therefore keeps the form checkpoints written before
    the masks existed hold; loading either form rebuilds them."""
    runtime = _runtime(machine, delta=0.05)
    state = runtime.__getstate__()
    assert "_all_mask" not in state and "_type_masks" not in state
    restored = pickle.loads(pickle.dumps(runtime))
    assert restored._all_mask == machine.all_cores_mask
    assert restored._type_masks == {
        ct.name: machine.affinity_of_type(ct) for ct in machine.core_types()
    }
    # The restored runtime steers exactly like the one it was taken from.
    proc = _proc(machine)
    restored.on_mark(proc, 0, 1, machine.cores[0], 0.0)
    _feed_sample(proc, "fast", 2000.0, 10_000.0)
    assert restored.on_mark(proc, 0, 1, machine.cores[0], 1.0).affinity == (
        frozenset({2, 3})
    )
