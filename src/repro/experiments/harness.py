"""Parallel fan-out for experiment sweeps.

Every experiment in this package is a sweep: the same deterministic
point function evaluated at many parameter values (δ thresholds, error
rates, technique variants, benchmarks).  The points are independent, so
:func:`run_tasks` fans them out over a :class:`ProcessPoolExecutor` and
returns results in task order — the caller's loop body becomes a
module-level worker function and nothing else changes.

Determinism contract: a point function must be a pure function of its
(picklable) task tuple.  Under that contract parallel results are bit
for bit identical to serial ones, whatever the worker count or
completion order — ``tests/experiments/test_determinism.py`` pins this
for Figure 6 and Table 1.

Worker count resolution (first match wins):

1. the explicit ``jobs=`` argument,
2. the ``REPRO_JOBS`` environment variable,
3. ``os.cpu_count()``.

``REPRO_JOBS=1`` (or ``jobs=1``) runs every task serially in-process —
no pool, no pickling — which is also the debugging fallback.  On Linux
the pool forks, so workers inherit the parent's already-populated
static-pipeline cache (:mod:`repro.tuning.pipeline`) for free; under
``spawn``/``forkserver`` (``start_method=``) the same entries are
shipped to each worker through a pool initializer instead, so every
start method sees a warm cache.

:func:`derive_seed` gives sweeps stable per-task seeds: hashing the
base seed with the task's identifying parts decorrelates tasks without
coupling any task's seed to how many tasks run or in what order.

Durable sweeps
==============

Durability is the broker backend's job (``backend="broker"``, or a
broker named by ``broker_dir=`` / ``REPRO_BROKER_DIR`` /
``REPRO_BROKER_URL``): every task is a content-keyed claim in
:mod:`repro.experiments.broker`, completed results are recorded with a
digest and replayed on rerun, each task runs with
:data:`~repro.sim.checkpoint.TASK_CHECKPOINT_DIR_ENV` pointing at its
own checkpoint directory (checkpoint-aware point functions then resume
mid-simulation), a dead worker's lease expires and its task is
re-offered, and a task that keeps failing is quarantined and then
rescued serially in the parent.  The CLI's ``--run-dir DIR`` is a
local broker at ``DIR/broker``.  Because point functions are pure and
results are replayed in task order, a resumed sweep returns
bit-identical results to an uninterrupted one.
"""

from __future__ import annotations

import functools
import hashlib
import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Sequence

from repro.errors import (
    BrokerError,
    BrokerUnavailableError,
    ExperimentError,
    TaskTimeoutError,
)
from repro.experiments.broker import BROKER_DIR_ENV, BROKER_URL_ENV
from repro.sim.checkpoint import task_checkpoint_dir
from repro.telemetry.context import current_recorder, set_recorder
from repro.telemetry.recorder import TraceRecorder

#: Placeholder for a task slot whose result has not been produced yet
#: (distinguishes "not run" from a legitimate ``None`` result).
_UNSET = object()

#: Environment variable overriding the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Environment variables giving the per-task retry knobs defaults
#: (CLI ``--task-timeout`` / ``--task-retries`` write them through, so
#: pool workers and resumed runs see the same budgets).
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"
TASK_RETRIES_ENV = "REPRO_TASK_RETRIES"

#: Local worker count for the broker backend.  Resolved on the host
#: that runs the workers (``REPRO_JOBS``/``--jobs`` otherwise), never
#: recorded in the queue — a worker host honors its own core budget,
#: not the enqueuing host's.  ``0`` means "submit and wait": enqueue
#: the sweep and block until workers elsewhere complete it.
BROKER_WORKERS_ENV = "REPRO_BROKER_WORKERS"


def worker_count(jobs: Optional[int] = None) -> int:
    """Resolve the effective worker count (always >= 1).

    Args:
        jobs: explicit override; ``None`` defers to the ``REPRO_JOBS``
            environment variable, then to ``os.cpu_count()``.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ExperimentError(
                    f"{JOBS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def _env_number(name: str, cast, fallback):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ExperimentError(
            f"{name} must be a number, got {raw!r}"
        ) from None


def resolve_timeout(timeout: Optional[float]) -> Optional[float]:
    """The effective per-task timeout: the explicit argument, else the
    ``REPRO_TASK_TIMEOUT`` environment variable, else no timeout."""
    if timeout is not None:
        return timeout
    value = _env_number(TASK_TIMEOUT_ENV, float, None)
    return value if value and value > 0 else None


def resolve_retries(retries: Optional[int]) -> int:
    """The effective per-task retry budget: the explicit argument, else
    the ``REPRO_TASK_RETRIES`` environment variable, else 0."""
    if retries is not None:
        return retries
    return _env_number(TASK_RETRIES_ENV, int, 0)


def derive_seed(base: int, *parts) -> int:
    """A stable 63-bit seed for one task of a sweep.

    Hashes *base* with the task's identifying *parts* (stringified), so
    each task gets an independent stream that does not depend on task
    count or execution order.
    """
    h = hashlib.sha256()
    h.update(str(int(base)).encode("utf-8"))
    for part in parts:
        h.update(b"\x00")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big") >> 1


def run_tasks(
    fn: Callable,
    tasks: Sequence,
    jobs: Optional[int] = None,
    log: Optional[Callable] = None,
    labels: Optional[Sequence[str]] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    start_method: Optional[str] = None,
    backend: Optional[str] = None,
    broker_dir=None,
) -> list:
    """Evaluate ``fn(task)`` for every task, results in task order.

    Args:
        fn: module-level point function (must be picklable for the
            parallel path; any callable works serially).
        tasks: picklable task tuples/values.
        jobs: worker count; see :func:`worker_count`.  Capped at the
            task count; ``1`` means serial in-process execution.
        log: optional progress callback, called with one line per
            completed task (completion order in the parallel path).
        labels: display names per task for *log*; repr of the task by
            default.
        timeout: per-task wall-clock budget in seconds, measured from
            submission (give queueing headroom: a task may briefly wait
            behind a sibling).  A task over budget is abandoned — and
            its worker, identified through a per-task pid file, is
            SIGKILLed so the slot is reclaimed — then resubmitted to a
            rebuilt pool while *retries* remain.  Defaults to the
            ``REPRO_TASK_TIMEOUT`` environment variable (no timeout
            when unset).  Not enforced on the serial path, which
            cannot interrupt a call; broker workers enforce it by
            letting their lease lapse (and, as subprocesses, killing
            themselves) so the task is re-offered.
        retries: resubmissions allowed per task after a timeout;
            defaults to the ``REPRO_TASK_RETRIES`` environment
            variable, else 0.  The pool path resubmits immediately;
            the broker backend re-offers with exponential backoff
            (``REPRO_BACKOFF_BASE`` seconds, doubling per attempt).
        start_method: multiprocessing start method for the pool
            (``fork`` / ``spawn`` / ``forkserver``); the platform
            default when omitted.  Non-fork workers do not inherit the
            parent's warm pipeline cache through memory, so its entries
            are shipped to each worker via a pool initializer instead.
        backend: ``"pool"`` (the single-host ProcessPoolExecutor,
            default) or ``"broker"`` (route the sweep through the
            claim/lease queue of :mod:`repro.experiments.broker` —
            multi-worker, multi-host, crash-safe, resumable).  ``None``
            selects the broker automatically when *broker_dir* or the
            ``REPRO_BROKER_DIR`` environment variable names a broker
            directory.  If that directory cannot be opened the sweep
            degrades gracefully to the pool backend.
        broker_dir: the broker directory for ``backend="broker"``;
            defaults to ``REPRO_BROKER_DIR``.

    Raises:
        TaskTimeoutError: a task exceeded *timeout* on its last allowed
            attempt.
        ExperimentError: invalid arguments.  Exceptions raised *inside*
            ``fn`` propagate unchanged.  If the worker pool itself dies
            (a worker killed by the OS), the surviving tasks are rerun
            serially in-process instead of raising.
    """
    tasks = list(tasks)
    total = len(tasks)
    if labels is None:
        labels = [repr(task) for task in tasks]
    elif len(labels) != total:
        raise ExperimentError(
            f"got {len(labels)} labels for {total} tasks"
        )
    timeout = resolve_timeout(timeout)
    retries = resolve_retries(retries)
    if timeout is not None and timeout <= 0:
        raise ExperimentError(f"timeout must be positive, got {timeout}")
    if retries < 0:
        raise ExperimentError(f"retries must be >= 0, got {retries}")
    if backend is None:
        has_broker = (
            broker_dir
            or os.environ.get(BROKER_URL_ENV, "").strip()
            or os.environ.get(BROKER_DIR_ENV, "").strip()
        )
        backend = "broker" if has_broker else "pool"
    elif backend not in ("pool", "broker"):
        raise ExperimentError(
            f"backend must be 'pool' or 'broker', got {backend!r}"
        )
    if total == 0:
        return []

    # Warm-fetch published pipeline entries from the shared store (when
    # one is configured) before any worker starts: fork workers inherit
    # them through memory, spawn workers receive them via the pool
    # initializer, and the sweep skips recomputing what the fleet
    # already built.  A dead store degrades to fetching nothing.
    from repro.tuning.pipeline import default_cache

    default_cache().warm_from_store()

    rec = current_recorder()
    rec = rec if rec.enabled else None
    if backend == "broker":
        # *broker_dir* may be a directory or an http(s):// URL — the
        # broker's connect() factory picks the transport either way.
        resolved_dir = (
            broker_dir
            or os.environ.get(BROKER_URL_ENV, "").strip()
            or os.environ.get(BROKER_DIR_ENV)
        )
        if not resolved_dir:
            raise ExperimentError(
                "backend='broker' requires broker_dir= or the "
                f"{BROKER_URL_ENV}/{BROKER_DIR_ENV} environment variable"
            )
        try:
            return _run_broker(
                fn, tasks, labels, jobs, log, timeout, retries, rec,
                resolved_dir, start_method,
            )
        except BrokerError as exc:
            # Graceful degradation: an unusable broker directory (read-
            # only filesystem, missing mount, bad sqlite build) must
            # not take the sweep down — fall through to the single-host
            # pool, which needs nothing but this machine.
            if log is not None:
                log(f"broker unavailable ({exc}); using single-host pool")

    jobs = min(worker_count(jobs), total)
    if jobs == 1:
        return _run_serial(fn, tasks, labels, log, rec)

    traced = rec is not None
    if traced:
        # Each worker records into its own fresh recorder and ships the
        # result home pickled (the pipeline cache's export_entries
        # pattern); shipping the *parent's* recorder out would duplicate
        # every event already collected here.
        fn = functools.partial(_telemetry_task, fn, tuple(rec.categories))
    results = [_UNSET] * total
    try:
        _run_pool(
            fn, tasks, labels, jobs, log, timeout, retries, results,
            start_method,
        )
    except BrokenProcessPool:
        # A worker died without reporting an exception (OOM-killed,
        # segfaulted C extension, ...).  The pool is unusable, but the
        # sweep need not be lost: rerun whatever is incomplete serially
        # in-process, where a real traceback surfaces if fn itself is
        # the culprit.  Results collected from the dying pool are kept,
        # not recomputed.
        incomplete = [i for i in range(total) if results[i] is _UNSET]
        if log is not None:
            log(
                f"worker pool died; rerunning {len(incomplete)} "
                f"unfinished task(s) serially"
            )
        for count, index in enumerate(incomplete):
            results[index] = fn(tasks[index])
            if log is not None:
                log(f"[serial {count + 1}/{len(incomplete)}] {labels[index]}")
    if traced:
        # Absorb worker traces in task order so re-based run ids are
        # deterministic whatever the completion order was.
        for index, wrapped in enumerate(results):
            value, blob = wrapped
            rec.absorb_blob(blob)
            results[index] = value
    return results


def _run_serial(
    fn: Callable,
    tasks: list,
    labels: Sequence[str],
    log: Optional[Callable],
    rec,
) -> list:
    """``jobs=1`` path of :func:`run_tasks`: in-process, in task order."""
    total = len(tasks)
    results = []
    task_run = None
    for index, task in enumerate(tasks):
        started = time.perf_counter()
        results.append(fn(task))
        if rec is not None:
            elapsed = time.perf_counter() - started
            if rec.wants("task"):
                if task_run is None:
                    task_run = rec.begin_run("harness", clock="wall")
                rec.span(
                    "task", labels[index], started, elapsed, run=task_run
                )
            rec.incr("harness.tasks")
            rec.incr("harness.task_seconds", elapsed)
        if log is not None:
            log(f"[{index + 1}/{total}] {labels[index]}")
    return results


def _telemetry_task(fn, categories, task):
    """Worker shim for traced sweeps: run the task under a fresh
    recorder and return ``(result, exported trace blob)``.

    The previous recorder is restored afterwards, so the in-parent
    rerun after a broken pool records into its own recorder too instead
    of scribbling on (or double-counting) the parent's.
    """
    recorder = TraceRecorder(categories=frozenset(categories))
    previous = set_recorder(recorder)
    started = time.perf_counter()
    try:
        value = fn(task)
    finally:
        elapsed = time.perf_counter() - started
        if recorder.wants("task"):
            run = recorder.begin_run(f"worker:{os.getpid()}", clock="wall")
            recorder.span(
                "task",
                getattr(fn, "__name__", "task"),
                started,
                elapsed,
                run=run,
            )
        recorder.incr("harness.tasks")
        recorder.incr("harness.task_seconds", elapsed)
        set_recorder(previous)
    return value, recorder.export_blob()


def _broker_worker_entry(
    directory, lease_ttl, max_attempts, task_timeout
) -> None:
    """Subprocess entry for one local broker worker.

    Runs the claim loop until the queue drains.  ``timeout_kills=True``:
    a task over its wall budget SIGKILLs this worker, the lease lapses,
    and the task is re-offered (with backoff) until quarantined —
    the broker analogue of the pool path's straggler SIGKILL.
    """
    from repro.experiments.broker import worker_loop

    worker_loop(
        directory,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
        task_timeout=task_timeout,
        timeout_kills=True,
        drain=True,
    )


def _broker_local_workers(jobs: Optional[int], total: int) -> int:
    """How many local broker workers this host should run.

    ``REPRO_BROKER_WORKERS`` wins (0 = submit-and-wait for workers on
    other hosts); otherwise the usual :func:`worker_count` resolution —
    of *this* host's environment, never anything recorded in the queue.
    """
    override = _env_number(BROKER_WORKERS_ENV, int, None)
    if override is not None:
        return max(0, min(override, total))
    return min(worker_count(jobs), total)


def _run_broker(
    fn: Callable,
    tasks: list,
    labels: Sequence[str],
    jobs: Optional[int],
    log: Optional[Callable],
    timeout: Optional[float],
    retries: int,
    rec,
    broker_dir,
    start_method: Optional[str] = None,
) -> list:
    """Broker backend of :func:`run_tasks`: enqueue, drive workers,
    replay in task order.

    The queue is the durable layer: results are recorded idempotently
    by content key, so a rerun replays them instead of recomputing.
    Tasks that end up quarantined — or whose results cannot be
    verified — are rescued serially in-parent (with their checkpoint
    directory) as the last resort; a genuine poison task then raises
    its real traceback in the caller.
    """
    from repro.experiments.broker import (
        DEFAULT_MAX_ATTEMPTS,
        Lease,
        connect,
        task_key,
    )
    from repro.experiments.results_db import ResultsDB

    traced = rec is not None
    run_fn = fn
    if traced:
        # sorted() so the partial's pickle — and with it every task's
        # content key and the sweep id — is deterministic across
        # processes and invocations.
        run_fn = functools.partial(
            _telemetry_task, fn, tuple(sorted(rec.categories))
        )
    # Worker deaths must not instantly quarantine: grant the broker at
    # least its own default budget even when the caller asked for zero
    # timeout-retries.
    max_attempts = max(retries + 1, DEFAULT_MAX_ATTEMPTS)
    broker = connect(broker_dir, max_attempts=max_attempts)
    total = len(tasks)
    sweep = broker.enqueue(run_fn, tasks, labels=labels, traced=traced)
    fn_name = (
        f"{getattr(fn, '__module__', '?')}."
        f"{getattr(fn, '__qualname__', repr(fn))}"
    )
    try:
        if broker.directory is None:
            # Networked broker: the results DB lives next to the queue
            # on the server, so the session is recorded over the wire.
            broker.record_session(sweep, fn_name, total)
        else:
            ResultsDB.for_broker(broker.directory).record_session(
                sweep, fn_name, total
            )
    except BrokerError:
        pass  # session log is advisory; the queue itself is intact
    done = broker.replay(sweep, traced=traced)
    if log is not None and done:
        log(f"broker: {len(done)} of {total} task(s) already complete")
    if len(done) < total:
        _drive_broker_sweep(
            broker, sweep, jobs, log, timeout, total - len(done),
            start_method,
        )
        done = broker.replay(sweep, traced=traced)
    missing = [index for index in range(total) if index not in done]
    if missing:
        quarantined = {
            idx: reason
            for _, idx, _, _, reason in broker.quarantined(sweep)
        }
        for count, index in enumerate(missing):
            if log is not None:
                why = quarantined.get(index, "result missing")
                log(
                    f"[rescue {count + 1}/{len(missing)}] {labels[index]} "
                    f"serially in parent ({why})"
                )
            key = task_key(run_fn, tasks[index])
            with task_checkpoint_dir(broker.checkpoint_dir(key), ref=key):
                value = run_fn(tasks[index])
            try:
                broker.complete(
                    Lease(sweep, index, key, labels[index], b"", 0, 0.0,
                          "parent-rescue"),
                    value,
                    traced=traced,
                )
            except BrokerUnavailableError as exc:
                # Recording the rescue is best-effort: the value is in
                # hand and the sweep must not fail because the broker
                # went away after the compute finished.
                if log is not None:
                    log(f"broker: could not record rescue ({exc})")
            done[index] = value
    results = [done[index] for index in range(total)]
    if traced:
        for index, wrapped in enumerate(results):
            value, blob = wrapped
            rec.absorb_blob(blob)
            results[index] = value
    return results


def _drive_broker_sweep(
    broker,
    sweep: str,
    jobs: Optional[int],
    log: Optional[Callable],
    timeout: Optional[float],
    remaining: int,
    start_method: Optional[str] = None,
    poll_interval: float = 0.2,
) -> None:
    """Run local workers (and/or wait for remote ones) until *sweep*
    settles — every task done or quarantined.

    Dead local workers are respawned while runnable work remains, up to
    a budget bounded by the per-task attempt limits (so a worker-killing
    task ends in quarantine, not an infinite respawn loop).

    A networked broker may drop out mid-sweep: the supervision loops
    here poll through outages for the down-grace window
    (``REPRO_BROKER_GRACE``) and only then let
    :class:`BrokerUnavailableError` propagate — which ``run_tasks``
    turns into the single-host pool fallback.
    """
    from repro.experiments.broker import resolve_down_grace, worker_loop

    grace = resolve_down_grace(None)
    down_since = None

    def outage(exc) -> bool:
        """Track one outage tick; ``True`` while inside the grace
        window, raises the original error once it is spent."""
        nonlocal down_since
        now = time.monotonic()
        if down_since is None:
            down_since = now
            if log is not None:
                log(f"broker: {exc}; waiting up to {grace:.0f}s")
        if now - down_since > grace:
            raise exc
        return True

    local = _broker_local_workers(jobs, remaining)
    if local == 0:
        if log is not None:
            log(f"broker: waiting for remote workers to finish {sweep}")
        while True:
            try:
                if broker.settled(sweep):
                    return
                broker.reclaim_expired()
            except BrokerUnavailableError as exc:
                outage(exc)
            else:
                down_since = None
            time.sleep(poll_interval)
    if local == 1:
        # In-process: deterministic, no subprocess to supervise.  A
        # timeout here cannot kill the worker (it is us); the lease
        # lapsing still re-offers the task to any other worker.
        worker_loop(
            broker.target,
            lease_ttl=broker.lease_ttl,
            max_attempts=broker.max_attempts,
            task_timeout=timeout,
            timeout_kills=False,
            poll_interval=poll_interval,
            drain=True,
            log=log,
        )
        return
    context = multiprocessing.get_context(start_method)
    entry_args = (
        broker.target, broker.lease_ttl, broker.max_attempts, timeout,
    )

    def spawn():
        proc = context.Process(
            target=_broker_worker_entry, args=entry_args, daemon=True
        )
        proc.start()
        return proc

    workers = [spawn() for _ in range(local)]
    respawns = 0
    respawn_budget = remaining * broker.max_attempts + local
    try:
        while True:
            try:
                if broker.settled(sweep):
                    return
                broker.reclaim_expired()
                counts = broker.counts()
            except BrokerUnavailableError as exc:
                outage(exc)
                time.sleep(poll_interval)
                continue
            down_since = None
            alive = [proc for proc in workers if proc.is_alive()]
            dead = len(workers) - len(alive)
            if dead and log is not None:
                log(f"broker: {dead} local worker(s) died")
            workers = alive
            runnable = counts["pending"] + counts["leased"]
            while (
                runnable > 0
                and len(workers) < local
                and respawns < respawn_budget
            ):
                workers.append(spawn())
                respawns += 1
                if log is not None:
                    log("broker: respawned a local worker")
            if not workers and respawns >= respawn_budget:
                # Workers keep dying faster than the attempt budget
                # burns down; stop supervising and let the parent
                # rescue whatever is left.
                if log is not None:
                    log("broker: worker respawn budget exhausted")
                return
            time.sleep(poll_interval)
    finally:
        deadline = time.monotonic() + 5.0
        for proc in workers:
            proc.terminate()
        for proc in workers:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()


def _warm_spawned_worker(blob: bytes) -> None:
    """Pool initializer for non-fork start methods: install the
    parent's pipeline-cache entries (fork inherits them for free)."""
    if blob:
        from repro.tuning.pipeline import default_cache

        default_cache().install_entries(blob)


def _traced_call(payload: tuple):
    """Worker shim recording which pid runs which task, so a hung task's
    worker can be SIGKILLed from the parent."""
    fn, task, pid_path = payload
    try:
        with open(pid_path, "w") as handle:
            handle.write(str(os.getpid()))
    except OSError:
        pass
    try:
        return fn(task)
    finally:
        try:
            os.unlink(pid_path)
        except OSError:
            pass


class _StragglersKilled(Exception):
    """Internal: a hung worker was SIGKILLed; the pool is gone and the
    incomplete tasks need a fresh one."""


def _kill_straggler(pool, pid_dir: Optional[str], index: int) -> bool:
    """SIGKILL the worker recorded for task *index*, if it is still one
    of *pool*'s own processes (guards against pid reuse)."""
    if pid_dir is None:
        return False
    pid_path = os.path.join(pid_dir, f"{index}.pid")
    try:
        with open(pid_path) as handle:
            pid = int(handle.read().strip() or "0")
    except (OSError, ValueError):
        return False
    processes = getattr(pool, "_processes", None) or {}
    if pid not in processes:
        return False
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        return False
    return True


def _run_pool(
    fn: Callable,
    tasks: list,
    labels: Sequence[str],
    jobs: int,
    log: Optional[Callable],
    timeout: Optional[float],
    retries: int,
    results: list,
    start_method: Optional[str] = None,
) -> None:
    """Pool path of :func:`run_tasks`, filling *results* in place.

    Runs the tasks in pool *generations*: when a straggler has to be
    SIGKILLed (its slot cannot otherwise be reclaimed — a worker with a
    task is unkillable through the executor API), the broken pool is
    dropped and the still-incomplete tasks resubmitted to a fresh one,
    with per-task attempt counts carried across generations.  Any other
    pool death propagates as :class:`BrokenProcessPool`, which
    :func:`run_tasks` answers with a serial rerun of what is left.
    """
    total = len(tasks)
    context = multiprocessing.get_context(start_method)
    initializer = None
    initargs: tuple = ()
    if context.get_start_method() != "fork":
        from repro.tuning.pipeline import default_cache

        initializer = _warm_spawned_worker
        initargs = (default_cache().export_entries(),)
    attempts = [0] * total
    progress = [0]
    pid_dir = (
        tempfile.mkdtemp(prefix="repro-harness-")
        if timeout is not None
        else None
    )
    try:
        while True:
            todo = [i for i in range(total) if results[i] is _UNSET]
            if not todo:
                return
            pool = ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=context,
                initializer=initializer,
                initargs=initargs,
            )
            try:
                _pool_generation(
                    pool, fn, tasks, labels, jobs, log, timeout, retries,
                    results, attempts, todo, pid_dir, progress,
                )
                return
            except _StragglersKilled:
                if log is not None:
                    remaining = sum(
                        1 for i in range(total) if results[i] is _UNSET
                    )
                    log(
                        f"rebuilding worker pool for {remaining} "
                        f"unfinished task(s)"
                    )
    finally:
        if pid_dir is not None:
            shutil.rmtree(pid_dir, ignore_errors=True)


def _pool_generation(
    pool,
    fn: Callable,
    tasks: list,
    labels: Sequence[str],
    jobs: int,
    log: Optional[Callable],
    timeout: Optional[float],
    retries: int,
    results: list,
    attempts: list,
    todo: list,
    pid_dir: Optional[str],
    progress: list,
) -> None:
    """Run the *todo* task indices through *pool*, filling *results*."""
    total = len(tasks)
    index_of: dict = {}
    deadline_of: dict = {}
    pending: set = set()
    next_slot = 0

    def submit(index: int) -> None:
        if pid_dir is not None:
            pid_path = os.path.join(pid_dir, f"{index}.pid")
            try:
                os.unlink(pid_path)
            except OSError:
                pass
            future = pool.submit(_traced_call, (fn, tasks[index], pid_path))
        else:
            future = pool.submit(fn, tasks[index])
        index_of[future] = index
        if timeout is not None:
            deadline_of[future] = time.monotonic() + timeout
        pending.add(future)

    def submit_up_to(limit: int) -> None:
        # Submit in chunks of one pool-width so a long tail of tasks
        # does not pile up queued pickles, then top the window up as
        # futures complete.
        nonlocal next_slot
        while next_slot < len(todo) and len(pending) < limit:
            submit(todo[next_slot])
            next_slot += 1

    try:
        submit_up_to(2 * jobs)
        while pending:
            wait_timeout = None
            if timeout is not None:
                nearest = min(deadline_of[f] for f in pending)
                wait_timeout = max(0.0, nearest - time.monotonic())
            completed, pending = wait(
                pending, timeout=wait_timeout, return_when=FIRST_COMPLETED
            )
            pool_error = None
            for future in completed:
                index = index_of.pop(future)
                deadline_of.pop(future, None)
                try:
                    value = future.result()
                except BrokenProcessPool as exc:
                    # This future died with the pool.  Keep collecting
                    # the siblings that genuinely finished in the same
                    # batch before giving up, so the serial rerun never
                    # recomputes them.
                    pool_error = exc
                    continue
                results[index] = value
                progress[0] += 1
                if log is not None:
                    log(f"[{progress[0]}/{total}] {labels[index]}")
            if pool_error is not None:
                raise pool_error
            if timeout is not None:
                now = time.monotonic()
                expired = [f for f in pending if deadline_of[f] <= now]
                for future in expired:
                    if future.done():
                        continue  # finished just now; collected next loop
                    cancelled = future.cancel()
                    pending.discard(future)
                    index = index_of.pop(future)
                    deadline_of.pop(future)
                    attempts[index] += 1
                    if attempts[index] > retries:
                        raise TaskTimeoutError(
                            f"task {labels[index]} exceeded {timeout:g}s "
                            f"(attempt {attempts[index]}, retries={retries})"
                        )
                    if log is not None:
                        log(
                            f"task {labels[index]} exceeded {timeout:g}s; "
                            f"retry {attempts[index]}/{retries}"
                        )
                    if cancelled:
                        # Never started; resubmit into this same pool.
                        submit(index)
                        continue
                    # A running straggler holds its worker hostage:
                    # SIGKILL the recorded pid to reclaim the slot, then
                    # rebuild the (now broken) pool for whatever is
                    # incomplete.  Without a recorded pid (start-up
                    # race), fall back to abandoning the future — the
                    # straggler burns out on its own.
                    if _kill_straggler(pool, pid_dir, index):
                        if log is not None:
                            log(
                                f"killed straggling worker of task "
                                f"{labels[index]}"
                            )
                        raise _StragglersKilled()
                    submit(index)
            submit_up_to(2 * jobs)
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=False)
