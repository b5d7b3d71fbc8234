"""Checkpoint format, manager policy, and kill-resume bit-identity."""

import os
import random
import time

import pytest

from repro.errors import CheckpointError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import make_workload, run_technique_point
from repro.instrument.marker import parse_strategy
from repro.sim import checkpoint
from repro.sim.checkpoint import (
    CHECKPOINT_INTERVAL_ENV,
    CheckpointManager,
    MAGIC,
    TASK_CHECKPOINT_DIR_ENV,
    load_checkpoint,
    save_checkpoint,
    task_checkpoint_dir,
    task_checkpoint_manager,
)
from repro.sim.executor import Simulation
from repro.sim.faults import FaultPlan
from repro.sim.flattrace import FlatCursor
from repro.telemetry.context import set_recorder
from repro.telemetry.recorder import NULL_RECORDER, TraceRecorder
from repro.tuning.pipeline import PipelineCache
from repro.workloads.workload import WorkloadRun


# -- file format ----------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    state = {"now": 12.5, "payload": list(range(100)), "nested": {"a": (1, 2)}}
    path = save_checkpoint(state, tmp_path / "x.ckpt")
    assert load_checkpoint(path) == state
    # No stray tmp file left behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.ckpt"]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_non_dict_payload_rejected(tmp_path):
    path = save_checkpoint({"now": 0.0}, tmp_path / "x.ckpt")
    # Splice a non-dict pickle under a recomputed valid envelope.
    import hashlib
    import json
    import pickle

    payload = pickle.dumps([1, 2, 3])
    header = json.dumps(
        {
            "length": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "sim_time": 0.0,
            "version": 1,
        }
    ).encode("ascii")
    path.write_bytes(MAGIC + len(header).to_bytes(4, "big") + header + payload)
    with pytest.raises(CheckpointError, match="not a snapshot dict"):
        load_checkpoint(path)


def test_wrong_version_rejected(tmp_path):
    import hashlib
    import json
    import pickle

    payload = pickle.dumps({"now": 0.0})
    header = json.dumps(
        {
            "length": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "sim_time": 0.0,
            "version": 999,
        }
    ).encode("ascii")
    path = tmp_path / "x.ckpt"
    path.write_bytes(MAGIC + len(header).to_bytes(4, "big") + header + payload)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_every_truncation_rejected(tmp_path):
    """Property: a checkpoint cut at ANY byte boundary never loads."""
    path = save_checkpoint(
        {"now": 3.0, "blob": bytes(range(256)) * 8}, tmp_path / "x.ckpt"
    )
    raw = path.read_bytes()
    rng = random.Random(42)
    cuts = {0, 1, len(MAGIC), len(MAGIC) + 2, len(raw) - 1}
    cuts.update(rng.randrange(len(raw)) for _ in range(40))
    for cut in sorted(cuts):
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_every_bit_flip_rejected_or_detected(tmp_path):
    """Property: flipping any single bit never yields a *different*
    accepted snapshot — it either still loads to the identical state
    (a don't-care byte, e.g. JSON whitespace) or raises."""
    state = {"now": 3.0, "blob": bytes(range(256)) * 4}
    path = save_checkpoint(state, tmp_path / "x.ckpt")
    raw = bytearray(path.read_bytes())
    rng = random.Random(7)
    offsets = {0, len(MAGIC) + 1, len(raw) - 1}
    offsets.update(rng.randrange(len(raw)) for _ in range(60))
    for offset in sorted(offsets):
        flipped = bytearray(raw)
        flipped[offset] ^= 1 << rng.randrange(8)
        path.write_bytes(bytes(flipped))
        try:
            loaded = load_checkpoint(path)
        except CheckpointError:
            continue
        assert loaded == state, f"bit flip at {offset} silently accepted"


# -- manager policy -------------------------------------------------------------


def test_interval_must_be_positive_finite(tmp_path):
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(CheckpointError, match="interval"):
            CheckpointManager(tmp_path, interval=bad)


def test_keep_must_leave_a_fallback(tmp_path):
    with pytest.raises(CheckpointError, match="keep"):
        CheckpointManager(tmp_path, keep=1)


def test_due_times_sit_on_absolute_grid(tmp_path):
    mgr = CheckpointManager(tmp_path, interval=5.0)
    assert mgr.first_due(0.0) == 5.0
    assert mgr.first_due(4.99) == 5.0
    assert mgr.first_due(5.0) == 10.0
    assert mgr.first_due(12.3) == 15.0


class _FakeSim:
    def __init__(self, now):
        self._now = now

    def snapshot_state(self):
        return {"now": self._now}


def test_save_numbers_and_prunes(tmp_path):
    mgr = CheckpointManager(tmp_path, interval=1.0, keep=2)
    for k in range(5):
        mgr.save(_FakeSim(float(k)))
    names = [p.name for p in mgr.checkpoint_files()]
    assert names == ["ckpt-00000003.ckpt", "ckpt-00000004.ckpt"]
    assert mgr.saves == 5
    assert mgr.latest_state() == {"now": 4.0}


def test_sequence_continues_across_managers(tmp_path):
    first = CheckpointManager(tmp_path, interval=1.0)
    first.save(_FakeSim(1.0))
    second = CheckpointManager(tmp_path, interval=1.0)
    second.save(_FakeSim(2.0))
    names = [p.name for p in second.checkpoint_files()]
    assert names == ["ckpt-00000000.ckpt", "ckpt-00000001.ckpt"]


def test_corrupt_newest_falls_back_to_predecessor(tmp_path):
    mgr = CheckpointManager(tmp_path, interval=1.0)
    mgr.save(_FakeSim(1.0))
    mgr.save(_FakeSim(2.0))
    newest = mgr.checkpoint_files()[-1]
    raw = bytearray(newest.read_bytes())
    raw[-3] ^= 0xFF
    newest.write_bytes(bytes(raw))
    assert mgr.latest_state() == {"now": 1.0}
    assert mgr.corrupt_skipped == 1


def test_all_corrupt_falls_back_to_clean_start(tmp_path):
    mgr = CheckpointManager(tmp_path, interval=1.0)
    mgr.save(_FakeSim(1.0))
    mgr.save(_FakeSim(2.0))
    for path in mgr.checkpoint_files():
        path.write_bytes(b"garbage")
    assert mgr.latest_state() is None
    assert mgr.corrupt_skipped == 2


def test_empty_directory_is_clean_start(tmp_path):
    assert CheckpointManager(tmp_path / "nope").latest_state() is None


# -- wall-clock overhead budget -------------------------------------------------


class _Clock:
    """A wall clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _CostlySim:
    """A simulation whose snapshot takes *cost* units of wall time."""

    def __init__(self, clock, cost):
        self.clock = clock
        self.cost = cost
        self.at = 0.0

    def snapshot_state(self):
        self.clock.now += self.cost
        return {"now": self.at}


def _due(mgr, sim, at, wall):
    """Reach the grid point due at sim time *at* at wall time *wall*."""
    sim.clock.now = wall
    sim.at = at
    return mgr.maybe_save(sim, at)


@pytest.fixture
def clock(monkeypatch):
    fake = _Clock()
    monkeypatch.setattr(checkpoint, "_clock", fake)
    return fake


def test_budget_skips_grid_points_until_ten_save_costs_pass(tmp_path, clock):
    mgr = CheckpointManager(tmp_path, interval=1.0)
    sim = _CostlySim(clock, cost=1.0)
    # No cost history: the first due point saves, costing wall 0 -> 1.
    assert _due(mgr, sim, 1.0, wall=0.0) is not None
    # Due points within 10 units of the save's end are skipped, and
    # each skip still moves the due time along the grid.
    assert _due(mgr, sim, 2.0, wall=4.0) is None
    assert mgr.next_due == 3.0
    assert _due(mgr, sim, 3.5, wall=10.5) is None
    assert mgr.next_due == 4.0
    # The next one after that saves.
    assert _due(mgr, sim, 4.0, wall=11.5) is not None
    assert mgr.saves == 2
    assert mgr.latest_state() == {"now": 4.0}
    assert mgr.next_due == 5.0


def test_budget_takes_the_first_save_without_cost_history(
        tmp_path, clock, monkeypatch):
    sim = _CostlySim(clock, cost=1.0)
    first = CheckpointManager(tmp_path / "a")
    # Zero wall time since the manager was created, but no save has
    # been measured in this process yet.
    assert _due(first, sim, 10.0, wall=0.0) is not None
    # The measured cost outlives the manager: a new one in the same
    # process waits ten save costs from its creation.
    second = CheckpointManager(tmp_path / "b")
    assert _due(second, sim, 10.0, wall=5.0) is None
    assert _due(second, sim, 20.0, wall=11.5) is not None
    # A fresh process has no cost history again.
    monkeypatch.setattr(checkpoint, "_save_cost", 0.0)
    third = CheckpointManager(tmp_path / "c")
    assert _due(third, sim, 10.0, wall=12.5) is not None


def test_free_saves_are_taken_at_every_grid_point(tmp_path, clock):
    """Saves that cost no wall time never exhaust the budget, which is
    what lets the test suite's frozen clock save at every grid point."""
    sim = _CostlySim(clock, cost=0.0)
    mgr = CheckpointManager(tmp_path, interval=1.0)
    for at in (1.0, 2.0, 3.0, 4.0):
        assert _due(mgr, sim, at, wall=0.0) is not None
    assert mgr.saves == 4


# -- task_checkpoint_manager ----------------------------------------------------


def test_task_manager_absent_without_env(monkeypatch):
    monkeypatch.delenv(TASK_CHECKPOINT_DIR_ENV, raising=False)
    assert task_checkpoint_manager() is None


def test_task_manager_reads_env(tmp_path, monkeypatch):
    monkeypatch.setenv(TASK_CHECKPOINT_DIR_ENV, str(tmp_path))
    monkeypatch.setenv(CHECKPOINT_INTERVAL_ENV, "2.5")
    mgr = task_checkpoint_manager()
    assert mgr.directory == tmp_path
    assert mgr.interval == 2.5
    sub = task_checkpoint_manager("tuned")
    assert sub.directory == tmp_path / "tuned"


def test_task_manager_rejects_bad_interval(tmp_path, monkeypatch):
    monkeypatch.setenv(TASK_CHECKPOINT_DIR_ENV, str(tmp_path))
    monkeypatch.setenv(CHECKPOINT_INTERVAL_ENV, "soon")
    with pytest.raises(CheckpointError, match="not a number"):
        task_checkpoint_manager()


# -- kill/resume bit-identity ---------------------------------------------------


def _config():
    return ExperimentConfig(slots=4, interval=20.0, seed=11)


def _summary(result):
    return {
        "time": result.time,
        "completed": [
            (
                p.pid,
                p.name,
                p.completion,
                p.stats.instructions,
                dict(p.stats.cycles_by_type),
                p.stats.switches,
                p.stats.migrations,
                p.stats.mark_firings,
                p.stats.cpu_time,
            )
            for p in result.completed
        ],
        "buckets": dict(result.throughput_buckets),
        "idle": dict(result.idle_time_by_core),
    }


def _tuned_run(config, cache, faults=None, checkpoint=None, until=None):
    workload = make_workload(config)
    run = WorkloadRun(
        workload,
        config.resolved_machine(),
        parse_strategy("Loop[45]"),
        cache=cache,
    )
    result = run.run(
        until if until is not None else config.interval,
        runtime=config.make_runtime(None),
        faults=faults,
        checkpoint=checkpoint,
    )
    return result


def test_checkpointing_enabled_matches_disabled(tmp_path):
    """snapshot_state is pure: saving checkpoints must not perturb the
    simulation (no RNG draws, no mutation)."""
    config = _config()
    cache = PipelineCache()
    plain = _summary(_tuned_run(config, cache))
    ckpt = CheckpointManager(tmp_path / "ck", interval=3.0)
    with_ckpt = _summary(_tuned_run(config, cache, checkpoint=ckpt))
    assert ckpt.saves > 0
    assert with_ckpt == plain


@pytest.mark.parametrize("faulted", [False, True])
def test_kill_resume_is_bit_identical(tmp_path, faulted):
    """A run killed mid-flight and resumed from its checkpoint produces
    exactly the results of an uninterrupted run."""
    config = _config()
    cache = PipelineCache()
    plan = None
    if faulted:
        plan = FaultPlan.scaled(
            0.4,
            config.resolved_machine(),
            config.interval,
            seed=3,
            mem_pressure_rate=0.2,
            clock_drift_rate=0.3,
        )
    reference = _summary(_tuned_run(config, cache, faults=plan))

    ckpt_dir = tmp_path / "ck"
    partial = CheckpointManager(ckpt_dir, interval=3.0)
    # "Kill": run only part of the interval, then discard all live
    # state — only the checkpoint directory survives.
    _tuned_run(config, cache, faults=plan, checkpoint=partial, until=8.0)
    assert partial.saves > 0

    # The newest snapshot keeps only the outcome of finished processes,
    # while every live one stays whole: the runqueue entry is the object
    # the simulation resumes, still sharing its WorkloadRun's trace.
    state = partial.latest_state()
    assert state["result"].completed and not state["result"].running
    assert all(p.trace is None for p in state["result"].completed)
    queued = [p for q in state["scheduler_state"]["queues"].values() for p in q]
    assert sorted(p.pid for p in queued) == state["live"]
    templates = state["on_complete"].__self__
    for p in queued:
        assert p.trace is templates.prepared(p.name).trace_template
        assert isinstance(p.cursor, FlatCursor) and not p.finished
    restored = Simulation.from_snapshot(state).scheduler.queued_processes()
    assert len(restored) == len(queued)
    assert all(a is b for a, b in zip(restored, queued))

    resumed_mgr = CheckpointManager(ckpt_dir, interval=3.0)
    resumed = _summary(
        _tuned_run(config, cache, faults=plan, checkpoint=resumed_mgr)
    )
    assert resumed == reference


def test_kill_resume_after_corrupting_newest_checkpoint(tmp_path):
    """Corrupting the newest snapshot falls back to its predecessor —
    and the resumed run is still bit-identical."""
    config = _config()
    cache = PipelineCache()
    reference = _summary(_tuned_run(config, cache))

    ckpt_dir = tmp_path / "ck"
    partial = CheckpointManager(ckpt_dir, interval=2.0, keep=3)
    _tuned_run(config, cache, checkpoint=partial, until=9.0)
    files = partial.checkpoint_files()
    assert len(files) >= 2
    raw = bytearray(files[-1].read_bytes())
    raw[len(raw) // 2] ^= 0x40
    files[-1].write_bytes(bytes(raw))

    resumed_mgr = CheckpointManager(ckpt_dir, interval=2.0, keep=3)
    resumed = _summary(_tuned_run(config, cache, checkpoint=resumed_mgr))
    assert resumed_mgr.corrupt_skipped == 1
    assert resumed == reference


def test_kill_resume_trace_and_metrics_identical(tmp_path):
    """Under telemetry, the resumed run's trace events and metrics also
    match the uninterrupted run's."""
    config = _config()
    cache = PipelineCache()

    def traced(fn):
        rec = TraceRecorder(categories={"exec", "sched", "tuning"})
        previous = set_recorder(rec)
        try:
            summary = fn()
        finally:
            set_recorder(previous)
        return summary, rec

    clean_summary, clean_rec = traced(
        lambda: _summary(_tuned_run(config, PipelineCache()))
    )

    ckpt_dir = tmp_path / "ck"

    def interrupted():
        partial = CheckpointManager(ckpt_dir, interval=3.0)
        _tuned_run(config, cache, checkpoint=partial, until=8.0)

    traced(interrupted)

    def resumed():
        mgr = CheckpointManager(ckpt_dir, interval=3.0)
        return _summary(_tuned_run(config, cache, checkpoint=mgr))

    resumed_summary, resumed_rec = traced(resumed)

    assert resumed_summary == clean_summary
    assert len(resumed_rec.events) == len(clean_rec.events)
    assert list(resumed_rec.events) == list(clean_rec.events)
    assert resumed_rec.metrics == clean_rec.metrics


def test_resume_continues_checkpointing_on_the_same_grid(tmp_path):
    """A resumed run's later snapshots land on the same k*interval due
    grid the uninterrupted run would have used."""
    config = _config()
    cache = PipelineCache()
    ckpt_dir = tmp_path / "ck"
    partial = CheckpointManager(ckpt_dir, interval=4.0)
    _tuned_run(config, cache, checkpoint=partial, until=9.0)
    resumed_mgr = CheckpointManager(ckpt_dir, interval=4.0)
    _tuned_run(config, cache, checkpoint=resumed_mgr)
    # The resumed run keeps saving on the same absolute grid: the
    # partial run covered due points 4 and 8, the resumed run 12 and
    # 16 (a save records the sim time just *before* the triggering
    # event, so compare against the preceding grid point).
    assert resumed_mgr.saves >= 2
    state = resumed_mgr.latest_state()
    assert state is not None
    assert state["now"] >= 12.0


def _outcome_summary(outcome):
    return (
        outcome.name,
        _summary(outcome.result),
        outcome.fairness,
        outcome.instructions,
        outcome.switches,
    )


def test_harness_task_resumes_mid_simulation(tmp_path, monkeypatch):
    """A paper-scale harness task under the budget still leaves a
    mid-simulation snapshot, and rerunning the task resumes from it to
    the uncheckpointed outcome."""
    # The real wall clock, from no cost history: a fresh task process.
    monkeypatch.setattr(checkpoint, "_clock", time.perf_counter)
    task = (ExperimentConfig.paper(), "Loop[45]", None, 0.12)
    plain = _outcome_summary(run_technique_point(task))
    ckpt_dir = tmp_path / "task"
    with task_checkpoint_dir(ckpt_dir):
        run_technique_point(task)
        assert CheckpointManager(ckpt_dir).checkpoint_files()
        assert task_checkpoint_manager().latest_state()["now"] > 0

        resumed_from = []
        latest_state = CheckpointManager.latest_state

        def spy(mgr):
            state = latest_state(mgr)
            resumed_from.append(state["now"] if state else None)
            return state

        monkeypatch.setattr(CheckpointManager, "latest_state", spy)
        resumed = _outcome_summary(run_technique_point(task))
    assert resumed_from and resumed_from[0] > 0
    assert resumed == plain


def test_restore_rejects_machine_mismatch(tmp_path):
    from repro.sim.machine import many_core_amp

    config = _config()
    cache = PipelineCache()
    mgr = CheckpointManager(tmp_path / "ck", interval=3.0)
    _tuned_run(config, cache, checkpoint=mgr, until=8.0)
    state = mgr.latest_state()
    assert state is not None
    other = Simulation(many_core_amp())
    with pytest.raises(CheckpointError, match="cannot restore"):
        other.restore_state(state)


def test_from_snapshot_rejects_version_mismatch(tmp_path):
    with pytest.raises(CheckpointError, match="version"):
        Simulation.from_snapshot({"version": 999})
