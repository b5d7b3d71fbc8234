"""Spans and counts recorded around calls into the program's public API.

The ledger never edits the program.  For one pass it rebinds a list of
public functions and methods (:data:`LAYERS`) to wrappers and restores
the originals afterwards.  A wrapper records one span per call: a name,
a start, an end, the span that caused it, and the task it belongs to.

Worker processes are forked from the benchmark, so they inherit the
wrappers.  A fork hook clears the inherited spans and remembers which
span was open in the parent at fork time; that span becomes the parent
of the worker's top-level spans.  A worker appends its spans to a file
in the pass's scratch directory each time it leaves its outermost span
(and on SIGTERM, which is how the broker backend stops its workers),
and the benchmark merges those files when the pass ends.

Without timing (``timed=False``) only ``Simulation.run`` is wrapped, and
the wrapper reads no clock: it sums the modelled statistics of each
``SimulationResult`` so untraced passes can report simulated work and be
checked for determinism without perturbing the host-time measurement.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import signal
import sys
import threading
import time
from pathlib import Path

#: ``(span name, "module:Owner.attr")`` for every wrapped public entry
#: point.  A module-level function is rebound in every ``repro`` module
#: that imported it by name, except where ``only_here`` is set.
LAYERS = (
    ("harness.run_tasks", "repro.experiments.harness:run_tasks", False),
    ("harness.task", "repro.experiments.runner:run_technique_point", False),
    ("harness.task", "repro.experiments.table1:_point", False),
    ("harness.task", "repro.experiments.fig4:_point", False),
    ("harness.task", "repro.experiments.fig7:_point", False),
    ("analysis.typing", "repro.analysis.block_typing:StaticBlockTyper.type_blocks", False),
    ("analysis.transitions", "repro.instrument.marker:BBStrategy.compute_points", False),
    ("analysis.transitions", "repro.instrument.marker:IntervalStrategy.compute_points", False),
    ("analysis.transitions", "repro.instrument.marker:LoopStrategy.compute_points", False),
    ("analysis.liveness", "repro.instrument.rewriter:compute_liveness", True),
    ("instrument.build_marks", "repro.instrument.rewriter:build_marks", False),
    ("sim.tracegen", "repro.sim.tracegen:TraceGenerator.generate", False),
    ("sim.checkpoint.save", "repro.sim.checkpoint:CheckpointManager.save", False),
    ("sim.checkpoint.load", "repro.sim.checkpoint:CheckpointManager.latest_state", False),
    ("store.put", "repro.store.cas:LocalStore.put", False),
    ("store.get", "repro.store.cas:LocalStore.get", False),
    ("broker.claim", "repro.experiments.broker:Broker.claim", False),
    ("broker.complete", "repro.experiments.broker:Broker.complete", False),
)

SIM_RUN = "repro.sim.executor:Simulation.run"

#: Spans that start a task: every span below one carries its id.
TASK_SPAN = "harness.task"


def _payload_bytes(name, args, result):
    """Bytes moved by one call, for the layers that move bytes."""
    if name == "store.put":
        return len(args[1])
    if name == "sim.checkpoint.save":
        return os.path.getsize(result)
    return 0


def sim_stats(result) -> dict:
    """Modelled statistics of one ``SimulationResult`` (no host time)."""
    processes = result.all_processes
    return {
        "instructions": math.fsum(result.throughput_buckets.values()),
        "simulated_s": result.time,
        "switches": math.fsum(p.stats.switches for p in processes),
        "migrations": sum(p.stats.migrations for p in processes),
        "idle_core_s": math.fsum(result.idle_time_by_core.values()),
        "core_s": result.time * len(result.machine.cores),
    }


class Recorder:
    """Collects spans and simulation statistics for one pass.

    Args:
        scratch: directory forked workers write their records into.
        timed: wrap every layer and record spans; ``False`` wraps only
            ``Simulation.run`` and reads no clock.
    """

    def __init__(self, scratch: Path, timed: bool) -> None:
        self.scratch = Path(scratch)
        self.timed = timed
        self.home_pid = os.getpid()
        self.spans: list = []
        self.sims: list = []
        self._stacks: dict = {}
        self._seq = 0
        self._fork_parent = (None, None)
        self._pending_parent = (None, None)
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        return self._stacks.setdefault(threading.get_ident(), [])

    def call(self, name, fn, args, kwargs, sim=False):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*.

        Untimed, ``Simulation.run`` is the only call wrapped: its result's
        statistics are kept and no clock is read.
        """
        stack = self._stack()
        if not self.timed:
            result = fn(*args, **kwargs)
            self.sims.append(sim_stats(result))
            self._maybe_flush(stack)
            return result
        self._seq += 1
        sid = f"{os.getpid()}.{self._seq}"
        parent, task = stack[-1] if stack else self._fork_parent
        if name == TASK_SPAN or task is None:
            task = sid
        stack.append((sid, task))
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            nbytes = _payload_bytes(name, args, result) if result is not None else 0
            self.spans.append((sid, parent, task, name, start, end, nbytes))
            if sim and result is not None:
                self.sims.append(sim_stats(result))
            self._maybe_flush(stack)

    def span(self, name, fn, *args, **kwargs):
        """Record a span around a call made by the benchmark itself."""
        if not self.timed:
            return fn(*args, **kwargs)
        return self.call(name, fn, args, kwargs)

    def _maybe_flush(self, stack) -> None:
        if not stack and os.getpid() != self.home_pid:
            self.flush()

    def flush(self) -> None:
        """Append this worker's records to its file in the scratch dir."""
        if not (self.spans or self.sims):
            return
        line = json.dumps({"spans": self.spans, "sims": self.sims})
        with open(self.scratch / f"worker-{os.getpid()}.jsonl", "a") as out:
            out.write(line + "\n")
        self.spans = []
        self.sims = []

    def merge_workers(self) -> None:
        """Absorb (and delete) every record file workers wrote."""
        for path in sorted(self.scratch.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                self.spans.extend(tuple(span) for span in record["spans"])
                self.sims.extend(record["sims"])
            path.unlink()

    # -- fork handling -------------------------------------------------------

    def before_fork(self) -> None:
        stack = self._stack() or self._stacks.get(threading.main_thread().ident, [])
        self._pending_parent = stack[-1] if stack else self._fork_parent

    def after_fork_in_child(self) -> None:
        self._fork_parent = self._pending_parent
        self._stacks = {}
        self.spans = []
        self.sims = []
        signal.signal(signal.SIGTERM, _flush_and_exit)

    # -- installing wrappers ---------------------------------------------------

    def install(self) -> None:
        global _ACTIVE
        _ACTIVE = self
        if self.timed:
            for name, target, only_here in LAYERS:
                self._patch(name, target, only_here)
        self._patch("sim.run", SIM_RUN, False, sim=True)

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        _ACTIVE = None

    def _patch(self, name, target, only_here, sim=False) -> None:
        module_name, path = target.split(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if outer else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.call(name, original, args, kwargs, sim=sim)

        owners = [owner]
        if not outer and not only_here:
            owners += [
                module for key, module in list(sys.modules.items())
                if key.startswith("repro.") and module is not owner
                and getattr(module, attr, None) is original
            ]
        for each in owners:
            self._patches.append((each, attr, original))
            setattr(each, attr, wrapper)


#: The recorder whose wrappers are installed in this process; the fork
#: hooks below are process-wide, so they dispatch through it.
_ACTIVE = None


def _before_fork() -> None:
    if _ACTIVE is not None:
        _ACTIVE.before_fork()


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.after_fork_in_child()


def _flush_and_exit(signum, frame) -> None:
    if _ACTIVE is not None:
        _ACTIVE.flush()
    os._exit(128 + signum)


os.register_at_fork(before=_before_fork, after_in_child=_after_fork_in_child)


# -- aggregation ---------------------------------------------------------------


def _covered(interval, children) -> float:
    """Length of the part of *interval* that *children* cover."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children if b > lo and a < hi)
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def layer_totals(spans) -> dict:
    """``{span name: {"calls", "self_s", "total_s", "bytes"}}``.

    Self time is a span's duration minus the part of it that its child
    spans cover (children in worker processes overlap; their union is
    subtracted once).
    """
    children: dict = {}
    for sid, parent, _task, _name, start, end, _n in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict = {}
    for sid, _parent, _task, name, start, end, nbytes in spans:
        entry = totals.setdefault(
            name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "bytes": 0}
        )
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - _covered((start, end), children.get(sid, ()))
        entry["bytes"] += nbytes
    return totals


def harness_totals(spans) -> dict:
    """Task counts, busy and wait time, and worker utilisation.

    A task waits from the start of the ``run_tasks`` call that submitted
    it until it starts; utilisation is busy time over the ``run_tasks``
    wall time times the number of processes that ran its tasks.
    """
    by_id = {span[0]: span for span in spans}
    tasks = [span for span in spans if span[3] == TASK_SPAN]
    busy = math.fsum(end - start for *_, start, end, _n in tasks)
    wait = 0.0
    capacity = 0.0
    pids: dict = {}
    for sid, parent, _task, _name, start, _end, _n in tasks:
        owner = by_id.get(parent)
        if owner is not None and owner[3] == "harness.run_tasks":
            wait += start - owner[4]
            pids.setdefault(parent, set()).add(sid.split(".")[0])
    for parent, workers in pids.items():
        owner = by_id[parent]
        capacity += (owner[5] - owner[4]) * len(workers)
    return {
        "tasks": len(tasks),
        "busy_s": busy,
        "wait_s": wait,
        "util": busy / capacity if capacity else 0.0,
    }


def sim_totals(sims) -> dict:
    """Sums of :func:`sim_stats` over a pass, order-independent."""
    keys = ("instructions", "simulated_s", "switches", "idle_core_s", "core_s")
    out = {key: math.fsum(s[key] for s in sims) for key in keys}
    out["migrations"] = sum(s["migrations"] for s in sims)
    out["runs"] = len(sims)
    return out


def write_trace(path: Path, spans) -> None:
    """Write the merged spans as one JSON document."""
    fields = ("id", "parent", "task", "name", "start", "end", "bytes")
    path.write_text(json.dumps([dict(zip(fields, span)) for span in spans]))
