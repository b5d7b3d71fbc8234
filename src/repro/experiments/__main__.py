"""Run every experiment at full scale and print the paper-style output.

Usage::

    python -m repro.experiments                 # everything (a few minutes)
    python -m repro.experiments fig3 table2     # just the named ones
    python -m repro.experiments --jobs 4 --log fig6   # 4 workers, progress
    python -m repro.experiments --cache-dir .repro-cache fig6   # disk cache
    python -m repro.experiments --trace-out traces fig6   # Chrome trace
    python -m repro.experiments --trace-out traces telemetry  # summary
    python -m repro.experiments --no-coalesce table2   # per-quantum debug

``--jobs`` caps the harness worker pool (overriding ``REPRO_JOBS``;
``--jobs 1`` runs serially) and ``--log`` prints one progress line per
completed sweep point to stderr.  ``--cache-dir`` (or the
``REPRO_CACHE_DIR`` environment variable) persists the static-pipeline
cache to disk: a second invocation rebuilds nothing and reports a 100%
pipeline-cache hit rate in the stats line printed at the end.

``--store-url`` (or ``REPRO_STORE_URL``) adds shared artifact-store
tiers — comma-separated ``http(s)://`` servers (``python -m
repro.store serve``) and/or rsync-able directories — consulted on a
local cache miss: a host that never ran the pipeline fetches every
entry (digest-verified) instead of recomputing it.  ``--store-dir``
(or ``REPRO_STORE_DIR``) names the local store directory used by
broker results and checkpoint snapshots; the ``--cache-dir`` directory
is itself a valid store, so it can be served or listed in another
host's ``REPRO_STORE_URL`` directly.  A dead or slow remote tier costs
one bounded timeout and the run falls back to local compute with
byte-identical output.

``--trace-out DIR`` (or the ``REPRO_TRACE_DIR`` environment variable)
enables :mod:`repro.telemetry`: every simulation and harness task is
recorded and the run writes ``DIR/trace.json`` (Chrome ``trace_event``
format — load it in chrome://tracing or https://ui.perfetto.dev) and
``DIR/metrics.json``.  ``--trace-categories`` (or
``REPRO_TRACE_CATEGORIES``) selects event categories.  The
pseudo-experiment ``telemetry`` prints a text summary of the trace —
of the current invocation when run together with experiments, or of an
existing ``DIR/trace.json`` (falling back to the streamed
``DIR/trace.jsonl``, tolerating a torn tail) when run alone.  Without
``--trace-out`` nothing is recorded and the output is byte-identical
to a build without telemetry.

Crash-safe runs::

    python -m repro.experiments --run-dir run1 --jobs 4 fig6
    # ... SIGKILL, power loss, OOM ...
    python -m repro.experiments resume run1

Broker-backed sweeps (multi-worker, multi-host, fault-tolerant)::

    python -m repro.experiments --broker-dir /shared/q fig6   # self-contained
    python -m repro.experiments enqueue /shared/q fig6 &      # submit + wait
    python -m repro.experiments work /shared/q                # on any host
    python -m repro.experiments status /shared/q              # queue + drift
    python -m repro.experiments bless /shared/q               # golden baseline

Networked sweeps (no shared filesystem; see
:mod:`repro.experiments.broker_net`)::

    python -m repro.experiments serve /srv/q --port 8751      # broker host
    python -m repro.experiments enqueue http://host:8751 fig6 &
    python -m repro.experiments work http://host:8751          # any machine
    python -m repro.experiments status http://host:8751 --watch

Every broker verb accepts an ``http(s)://`` URL wherever it accepts a
directory (or ``--broker-url``/``REPRO_BROKER_URL`` instead of the
positional target).  The transport retries with backoff and jitter,
carries idempotency keys on every mutating request, and trips a
cooldown circuit breaker when the server is down — workers poll
through outages for ``REPRO_BROKER_GRACE`` seconds and results stay
exactly-once through server crashes.  ``serve --token`` (or
``REPRO_AUTH_TOKEN``, which clients also read) requires a bearer token
on every request; ``--readonly`` serves status-only.  ``enqueue
--priority N`` claims higher-priority sweeps first (FIFO within a
band).

``--broker-dir DIR`` (or ``REPRO_BROKER_DIR``) routes every sweep
through the claim/lease task queue of :mod:`repro.experiments.broker`:
tasks survive worker ``kill -9`` via lease reclamation, repeatedly
crashing tasks are quarantined instead of failing the sweep, and
results are recorded idempotently by content key.  ``enqueue`` submits
without computing (workers elsewhere run ``work``, which sizes itself
from *its own* host's ``REPRO_JOBS``/``--jobs``, never the submitter's);
``status`` reports queue states, quarantines, sessions, and drift
against the golden baseline recorded by ``bless``.

Per-task retry knobs (all backends): ``--task-timeout SECONDS``,
``--task-retries N``, ``--backoff-base SECONDS``, matching the
``REPRO_TASK_TIMEOUT`` / ``REPRO_TASK_RETRIES`` /
``REPRO_BACKOFF_BASE`` environment variables (``--lease-ttl`` likewise
matches ``REPRO_LEASE_TTL`` for broker leases).

``--run-dir DIR`` makes the invocation durable.  The chosen
experiments and options are written to ``DIR/manifest.json`` and every
sweep runs through a local broker at ``DIR/broker`` (unless
``--broker-dir``/``--broker-url`` names a broker, which then holds the
sweeps instead): completed tasks are recorded there with a digest,
each task checkpoints its simulation periodically
(``--checkpoint-interval`` simulated seconds, honoured on every broker
backend), and with ``--trace-out`` events also stream to
``trace.jsonl`` as they happen.  ``resume DIR`` replays the manifest:
recorded tasks are replayed, interrupted tasks continue from their
latest valid checkpoint, and the completed output is byte-identical to
an uninterrupted run.  Tasks whose workers died with the run stay
leased until their lease expires, so a resume can wait up to one lease
TTL (``--lease-ttl``, 30 s by default) before re-running them.
``status DIR/broker`` and ``bless DIR/broker`` work on a run
directory's broker like on any other.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from repro.experiments import (
    extras,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    harness,
    open_system,
    table1,
    table2,
)
from repro.experiments.broker import (
    BACKOFF_BASE_ENV,
    BROKER_DIR_ENV,
    BROKER_URL_ENV,
    LEASE_TTL_ENV,
    PRIORITY_ENV,
    Broker,
    connect,
    worker_loop,
)
from repro.errors import BrokerError
from repro.net import AUTH_TOKEN_ENV
from repro.experiments.config import ExperimentConfig
from repro.experiments.results_db import ResultsDB, format_diff
from repro.sim.checkpoint import CHECKPOINT_INTERVAL_ENV
from repro.sim.executor import NO_COALESCE_ENV
from repro.telemetry import (
    TRACE_CATEGORIES_ENV,
    TRACE_DIR_ENV,
    TimelineAnalyzer,
    TraceRecorder,
    current_recorder,
    env_categories,
    render_report,
    set_recorder,
    write_chrome_trace,
    write_metrics,
)
from repro.store import STORE_DIR_ENV, STORE_URL_ENV
from repro.tuning.pipeline import CACHE_DIR_ENV, default_cache


def _run_fig3(jobs, log):
    print(fig3.format_result(fig3.run()))


def _run_table1(jobs, log):
    result = table1.run(jobs=jobs, log=log)
    print(table1.format_result(result))
    print()
    print(fig5.format_result(fig5.run(result)))


def _run_fig4(jobs, log):
    config = ExperimentConfig(slots=84, interval=400.0, seed=101)
    print(fig4.format_result(fig4.run(config, jobs=jobs, log=log)))


def _run_fig6(jobs, log):
    print(
        fig6.format_result(
            fig6.run(
                ExperimentConfig.paper(), strategy="Loop[45]", jobs=jobs, log=log
            )
        )
    )


def _run_fig7(jobs, log):
    print(
        fig7.format_result(
            fig7.run(
                ExperimentConfig.paper(), strategy="Loop[45]", jobs=jobs, log=log
            )
        )
    )


def _run_table2(jobs, log):
    result = table2.run(ExperimentConfig.fairness_paper(), jobs=jobs, log=log)
    print(table2.format_result(result))
    print()
    print(fig8.format_result(fig8.run(table2=result)))


def _run_faults(jobs, log):
    print(
        extras.format_fault_resilience(
            extras.fault_resilience(jobs=jobs, log=log)
        )
    )


def _run_extras(jobs, log):
    print(extras.format_atom(extras.atom_comparison()))
    accuracy = extras.typing_accuracy()
    print(
        f"\ntyping accuracy: {accuracy.misclassified}/{accuracy.total_loops} "
        f"loops misclassified ({accuracy.error_rate:.1%}; paper ~15%)"
    )
    print()
    print(
        extras.format_sweep(
            extras.lookahead_sweep(ExperimentConfig.paper(), jobs=jobs, log=log)
        )
    )
    print()
    print(
        extras.format_sweep(
            extras.min_size_sweep(ExperimentConfig.paper(), jobs=jobs, log=log)
        )
    )
    three = extras.three_core_speedup(ExperimentConfig.paper())
    print(
        f"\n3-core AMP: avg {three.average_time_decrease:+.2f}%, "
        f"throughput {three.throughput_improvement:+.2f}%, "
        f"max-stretch {three.max_stretch_decrease:+.2f}%"
    )
    many = extras.many_core_speedup()
    print(
        f"8-core AMP: avg {many.average_time_decrease:+.2f}%, "
        f"throughput {many.throughput_improvement:+.2f}%, "
        f"max-stretch {many.max_stretch_decrease:+.2f}%"
    )
    threads = extras.multithreaded_comparison()
    print(
        f"multi-threaded app: makespan {threads.makespan_decrease:+.1f}%, "
        f"decisions shared: {threads.decisions_shared}"
    )
    feedback = extras.feedback_adaptation()
    print(
        f"feedback adaptation: {feedback.feedback_gain:+.1f}% more "
        f"post-shock progress ({feedback.resamples} re-samples)"
    )


def _run_open_system(jobs, log):
    print(
        open_system.format_result(
            open_system.run(ExperimentConfig.paper(), jobs=jobs, log=log)
        )
    )


_EXPERIMENTS = {
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "table1": _run_table1,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "table2": _run_table2,
    "faults": _run_faults,
    "extras": _run_extras,
    "open_system": _run_open_system,
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's experiments and print their tables.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="experiment",
        help=f"experiments to run (default: all): {', '.join(_EXPERIMENTS)}",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="harness worker processes (default: REPRO_JOBS or cpu count; "
        "1 = serial)",
    )
    parser.add_argument(
        "--log",
        action="store_true",
        help="print per-task sweep progress to stderr",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist the static-pipeline cache under DIR (default: the "
        "REPRO_CACHE_DIR environment variable, if set); repeat runs then "
        "skip the whole static pipeline",
    )
    parser.add_argument(
        "--store-url",
        default=None,
        metavar="URL[,URL...]",
        help="read artifacts through shared store tiers on a cache miss: "
        "http(s) servers (python -m repro.store serve) and/or plain "
        "directories, consulted in order (default: the REPRO_STORE_URL "
        "environment variable, if set)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="local artifact-store directory for broker results and "
        "checkpoint snapshots (default: the REPRO_STORE_DIR environment "
        "variable, if set); a --cache-dir directory is already a store "
        "and needs no extra flag",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="record telemetry and write DIR/trace.json (Chrome "
        "trace_event format) plus DIR/metrics.json (default: the "
        "REPRO_TRACE_DIR environment variable, if set)",
    )
    parser.add_argument(
        "--trace-categories",
        default=None,
        metavar="CATS",
        help="comma-separated trace categories, e.g. "
        "'exec,sched,tuning,quantum' or 'all' (default: the "
        "REPRO_TRACE_CATEGORIES environment variable, or a standard set "
        "excluding the high-volume quantum/segment spans)",
    )
    parser.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable macro-quantum coalescing and run every scheduling "
        "quantum through the per-quantum path (debug escape hatch, "
        f"parallel to the {NO_COALESCE_ENV} environment variable; the "
        "output is byte-identical either way, only slower)",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="make the run durable: write DIR/manifest.json and run "
        "every sweep through the broker at DIR/broker (unless "
        "--broker-dir/--broker-url names one), checkpointing each task's "
        "simulation; an interrupted invocation continues with "
        "'python -m repro.experiments resume DIR', which may first wait "
        "up to one --lease-ttl for tasks of dead workers",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="simulated seconds between task checkpoints of "
        "broker-backed sweeps, including --run-dir ones (default: 10)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock budget (default: REPRO_TASK_TIMEOUT, "
        "else none); over-budget pool workers are SIGKILLed and the task "
        "resubmitted, broker workers let the lease lapse so the task is "
        "re-offered",
    )
    parser.add_argument(
        "--task-retries",
        type=int,
        default=None,
        metavar="N",
        help="retry budget per task (default: REPRO_TASK_RETRIES, else 0); "
        "the broker backend always grants at least its quarantine "
        "threshold of attempts",
    )
    parser.add_argument(
        "--backoff-base",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exponential-backoff base between broker re-offers of a "
        "failed task (default: REPRO_BACKOFF_BASE, else 0.5)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="broker lease TTL: how long a dead worker's task stays "
        "claimed before reclamation (default: REPRO_LEASE_TTL, else 30)",
    )
    parser.add_argument(
        "--broker-dir",
        default=None,
        metavar="DIR",
        help="route sweeps through the fault-tolerant broker queue at DIR "
        "(default: the REPRO_BROKER_DIR environment variable, if set); "
        "see also the enqueue/work/status/bless verbs",
    )
    parser.add_argument(
        "--broker-url",
        default=None,
        metavar="URL",
        help="route sweeps through a networked broker server "
        "(python -m repro.experiments serve DIR) instead of a shared "
        "directory (default: the REPRO_BROKER_URL environment variable, "
        "if set); broker verbs also accept the URL positionally",
    )
    parser.add_argument(
        "--priority",
        type=int,
        default=None,
        metavar="N",
        help="with enqueue (or any broker-backed sweep): claim this "
        "sweep's tasks before lower-priority ones (default: "
        "REPRO_SWEEP_PRIORITY, else 0; FIFO within a priority band)",
    )
    parser.add_argument(
        "--token",
        default=None,
        metavar="TOKEN",
        help="bearer token for networked broker/store servers; with the "
        "serve verb, require it on every request (default: the "
        "REPRO_AUTH_TOKEN environment variable, if set)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="with the serve verb: address to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8751,
        metavar="N",
        help="with the serve verb: port to bind (default: 8751; "
        "0 = ephemeral)",
    )
    parser.add_argument(
        "--readonly",
        action="store_true",
        help="with the serve verb: reject mutating requests with 403 "
        "(status-only mirror)",
    )
    parser.add_argument(
        "--forever",
        action="store_true",
        help="with the work verb: keep serving after the queue drains "
        "(until interrupted)",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="with the status verb: poll the broker and re-render the "
        "report in place (plus the audit-event tail) until interrupted",
    )
    parser.add_argument(
        "--watch-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between --watch refreshes (default: 2)",
    )
    return parser.parse_args(argv)


def _run_telemetry(trace_dir, live: bool) -> None:
    """Print the summary report for the ``telemetry`` pseudo-experiment.

    Reports on the live recorder when the current invocation also ran
    experiments under ``--trace-out``; otherwise loads a previously
    written ``trace.json`` from *trace_dir* — falling back to the
    streamed ``trace.jsonl`` (tolerating a torn final line) when the
    recording run was killed before it could write ``trace.json``.
    """
    recorder = current_recorder()
    if live and recorder.enabled:
        analyzer = TimelineAnalyzer.from_recorder(recorder)
    else:
        if not trace_dir:
            raise SystemExit(
                "telemetry: nothing recorded and no trace directory; pass "
                f"--trace-out DIR or set {TRACE_DIR_ENV}"
            )
        path = Path(trace_dir) / "trace.json"
        tolerant = False
        if not path.exists():
            streamed = Path(trace_dir) / "trace.jsonl"
            if streamed.exists():
                path, tolerant = streamed, True
            else:
                raise SystemExit(f"telemetry: {path} does not exist")
        metrics_path = Path(trace_dir) / "metrics.json"
        metrics = (
            json.loads(metrics_path.read_text(encoding="utf-8"))
            if metrics_path.exists()
            else None
        )
        analyzer = TimelineAnalyzer.from_file(
            path, metrics=metrics, tolerant_tail=tolerant
        )
    print(render_report(analyzer))


#: Options carried through DIR/manifest.json so ``resume DIR`` replays
#: the original invocation without re-typing it.
_MANIFEST_KEYS = (
    "names",
    "jobs",
    "log",
    "cache_dir",
    "store_url",
    "store_dir",
    "no_coalesce",
    "trace_out",
    "trace_categories",
    "checkpoint_interval",
    "task_timeout",
    "task_retries",
    "backoff_base",
    "lease_ttl",
    "broker_dir",
    "broker_url",
    "priority",
)


def _write_manifest(run_dir: Path, args, chosen: list) -> None:
    manifest = {key: getattr(args, key) for key in _MANIFEST_KEYS}
    manifest["names"] = chosen
    run_dir.mkdir(parents=True, exist_ok=True)
    tmp = run_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    os.replace(tmp, run_dir / "manifest.json")


def _merge_manifest(run_dir: Path, args):
    """The resumed invocation's effective options: the manifest's,
    overridden by anything given again on the resume command line."""
    path = run_dir / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except OSError:
        raise SystemExit(
            f"resume: {path} does not exist; was this directory created "
            f"with --run-dir?"
        )
    except ValueError as exc:
        raise SystemExit(f"resume: {path} is not valid JSON: {exc}")
    for key in _MANIFEST_KEYS:
        override = getattr(args, key, None)
        if key != "names" and override not in (None, False):
            manifest[key] = override
    merged = argparse.Namespace(**{
        key: manifest.get(key) for key in _MANIFEST_KEYS
    })
    return merged, list(manifest.get("names") or _EXPERIMENTS)


def _execute(args, chosen: list, run_dir: Optional[Path]) -> None:
    """Run *chosen* experiments under *args*; the body shared by a
    fresh invocation and ``resume``."""
    if args.cache_dir:
        # Through the environment so harness worker processes — spawned
        # as well as forked — attach the same disk tier.
        os.environ[CACHE_DIR_ENV] = args.cache_dir
        default_cache().set_disk_dir(args.cache_dir)
    if getattr(args, "store_url", None):
        # Same routing as --cache-dir: workers (fork or spawn) and the
        # process-wide default_store() read the environment.
        os.environ[STORE_URL_ENV] = args.store_url
    if getattr(args, "store_dir", None):
        os.environ[STORE_DIR_ENV] = args.store_dir
    if getattr(args, "no_coalesce", False):
        # Same routing as --cache-dir: pool workers inherit the
        # environment, so every simulation in the invocation steps its
        # quanta individually.
        os.environ[NO_COALESCE_ENV] = "1"
    # Retry/broker knobs travel through the environment too, so pool
    # workers, broker workers, and resumed invocations all see them.
    if getattr(args, "task_timeout", None) is not None:
        os.environ[harness.TASK_TIMEOUT_ENV] = str(args.task_timeout)
    if getattr(args, "task_retries", None) is not None:
        os.environ[harness.TASK_RETRIES_ENV] = str(args.task_retries)
    if getattr(args, "backoff_base", None) is not None:
        os.environ[BACKOFF_BASE_ENV] = str(args.backoff_base)
    if getattr(args, "lease_ttl", None) is not None:
        os.environ[LEASE_TTL_ENV] = str(args.lease_ttl)
    if getattr(args, "broker_dir", None):
        os.environ[BROKER_DIR_ENV] = args.broker_dir
    if getattr(args, "broker_url", None):
        os.environ[BROKER_URL_ENV] = args.broker_url
    if getattr(args, "priority", None) is not None:
        os.environ[PRIORITY_ENV] = str(args.priority)
    if getattr(args, "token", None):
        # The token is never written to manifests — it travels through
        # the environment only.
        os.environ[AUTH_TOKEN_ENV] = args.token
    if args.trace_categories:
        os.environ[TRACE_CATEGORIES_ENV] = args.trace_categories
    if args.trace_out:
        # Through the environment for the same reason as --cache-dir:
        # harness workers read it when building their own recorders.
        os.environ[TRACE_DIR_ENV] = args.trace_out
    if args.checkpoint_interval is not None:
        # Through the environment so broker workers checkpoint at the
        # same cadence (task_checkpoint_manager reads it).
        os.environ[CHECKPOINT_INTERVAL_ENV] = str(args.checkpoint_interval)
    if run_dir is not None and not (args.broker_dir or args.broker_url):
        # A run directory is a broker directory: its sweeps are claims
        # in DIR/broker, recorded on completion and replayed by resume.
        os.environ[BROKER_DIR_ENV] = str(run_dir / "broker")
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    live = any(name != "telemetry" for name in chosen)
    recorder = None
    if trace_dir and live:
        # A `telemetry`-only invocation must not install (and later
        # flush) an empty recorder over an existing trace.json.  Under
        # a durable run the recorder also streams each event to
        # trace.jsonl as it happens, so a killed run still leaves a
        # loadable trace.
        stream_to = (
            Path(trace_dir) / "trace.jsonl" if run_dir is not None else None
        )
        recorder = TraceRecorder(
            categories=env_categories(), stream_to=stream_to
        )
        set_recorder(recorder)
    log = (
        (lambda line: print(line, file=sys.stderr, flush=True))
        if args.log
        else None
    )
    try:
        for name in chosen:
            print(f"===== {name} =====")
            if name == "telemetry":
                _run_telemetry(trace_dir, live)
            else:
                _EXPERIMENTS[name](args.jobs, log)
            print()
    finally:
        if recorder is not None:
            recorder.close_stream()
    if recorder is not None:
        out = Path(trace_dir)
        trace_path = write_chrome_trace(recorder, out / "trace.json")
        write_metrics(recorder, out / "metrics.json")
        print(
            f"telemetry: {len(recorder.events)} events from "
            f"{len(recorder.runs)} runs -> {trace_path}",
            file=sys.stderr,
        )
    stats = default_cache().stats()
    print(
        f"pipeline cache: {stats['hits']} hits / {stats['misses']} misses "
        f"({stats['hit_rate']:.0%} hit rate, {stats['disk_hits']} from disk, "
        f"{stats['store_hits']} from store, {stats['corruptions']} corrupt, "
        f"{stats['evicted_entries']} evicted / {stats['evicted_bytes']} "
        f"bytes)",
        file=sys.stderr,
    )


def _flag_target(args) -> str:
    """The broker target from flags/environment (no positional)."""
    return (
        getattr(args, "broker_url", None)
        or os.environ.get(BROKER_URL_ENV, "").strip()
        or getattr(args, "broker_dir", None)
        or os.environ.get(BROKER_DIR_ENV, "").strip()
    )


def _verb_dir(args, verb: str) -> str:
    """The verb's broker target: the positional argument, else
    ``--broker-url``/``--broker-dir`` (or their environment variables).
    Directories and ``http(s)://`` URLs are both valid everywhere."""
    if len(args.names) >= 2:
        return args.names[1]
    target = _flag_target(args)
    if target:
        return target
    raise SystemExit(
        f"usage: python -m repro.experiments {verb} TARGET"
        + (" [experiment ...]" if verb == "enqueue" else "")
        + " (TARGET = broker directory or http(s):// URL;"
        " or pass --broker-url)"
    )


def _cmd_enqueue(args) -> None:
    """Submit experiments through the broker and wait for workers.

    Spawns no local workers (``REPRO_BROKER_WORKERS=0``): the sweep is
    claimable by ``work`` processes on any host sharing the directory
    (or reaching the URL), and this invocation blocks until they
    finish, then prints the experiment output exactly as a local run
    would.
    """
    rest = args.names[1:]
    if rest and rest[0] not in _EXPERIMENTS:
        target, chosen = rest[0], rest[1:]
    else:
        # Every positional is an experiment name: the target must come
        # from --broker-url/--broker-dir or the environment.
        target = _flag_target(args)
        chosen = rest
        if not target:
            raise SystemExit(
                "usage: python -m repro.experiments enqueue TARGET "
                "[experiment ...] (or pass --broker-url)"
            )
    if target.startswith(("http://", "https://")):
        os.environ[BROKER_URL_ENV] = target
    else:
        os.environ[BROKER_DIR_ENV] = target
    os.environ[harness.BROKER_WORKERS_ENV] = "0"
    chosen = list(chosen) or list(_EXPERIMENTS)
    for name in chosen:
        if name not in _EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {name!r}; choose from "
                f"{sorted(_EXPERIMENTS)}"
            )
    _execute(args, chosen, None)


def _cmd_work(args) -> None:
    """Serve tasks from a broker directory on this host.

    The worker count comes from this host's ``--jobs``/``REPRO_JOBS``
    (never from anything the enqueuing host wrote into the queue), so
    every worker host honors its own core budget.
    """
    directory = _verb_dir(args, "work")
    if getattr(args, "lease_ttl", None) is not None:
        os.environ[LEASE_TTL_ENV] = str(args.lease_ttl)
    if getattr(args, "backoff_base", None) is not None:
        os.environ[BACKOFF_BASE_ENV] = str(args.backoff_base)
    jobs = harness.worker_count(args.jobs)
    log = lambda line: print(line, file=sys.stderr, flush=True)  # noqa: E731
    timeout = harness.resolve_timeout(args.task_timeout)
    if jobs == 1:
        try:
            completed = worker_loop(
                directory,
                task_timeout=timeout,
                timeout_kills=True,
                drain=not args.forever,
                log=log if args.log else None,
            )
        except BrokerError as exc:
            raise SystemExit(f"work: {exc}")
        print(f"worker drained: {completed} task(s) completed")
        return
    import multiprocessing

    procs = [
        multiprocessing.Process(
            target=worker_loop,
            args=(directory,),
            kwargs=dict(
                task_timeout=timeout,
                timeout_kills=True,
                drain=not args.forever,
            ),
        )
        for _ in range(jobs)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join()
    print(f"{jobs} worker(s) drained")


def _render_status(directory: str, events_tail: int = 0,
                   broker=None) -> str:
    """One status snapshot as text: queue states, workers, quarantines,
    sessions, drift against the golden baseline, and (for ``--watch``)
    the tail of the broker's audit-trail ``events`` table.

    *directory* may be a broker directory or an ``http(s)://`` URL;
    ``--watch`` passes its long-lived *broker* back in so transport
    state (the circuit breaker) survives across refreshes.
    """
    if broker is None:
        broker = connect(directory)
    http = broker.directory is None
    db = None if http else ResultsDB.for_broker(directory)
    lines = []
    sweeps = broker.sweeps()
    if not sweeps:
        lines.append(f"{directory}: empty broker (no sweeps enqueued)")
    for sweep, fn, total, traced, _created in sweeps:
        counts = broker.counts(sweep)
        state = "settled" if broker.settled(sweep) else "running"
        lines.append(
            f"{sweep} [{state}] {fn}: "
            f"{counts['done']}/{total} done, {counts['pending']} pending, "
            f"{counts['leased']} leased, {counts['quarantined']} quarantined"
            + (" (traced)" if traced else "")
        )
        if http:
            # The results DB lives on the server; it renders the diff.
            info = broker.diff_info(sweep)
            show, text = info.get("show"), info.get("text", "")
        else:
            rows = broker.result_rows(sweep)
            show = rows or db.golden_for(fn)
            text = format_diff(db.diff(fn, rows)) if show else ""
        if show:
            lines.append("  " + text.replace("\n", "\n  "))
    workers = broker.active_workers()
    if workers:
        lines.append(f"active workers: {', '.join(workers)}")
    for sweep, idx, label, attempts, reason in broker.quarantined():
        lines.append(f"QUARANTINED {sweep}[{idx}] {label}: {reason}")
    sessions = broker.sessions(limit=5) if http else db.sessions(limit=5)
    if sessions:
        lines.append("recent sessions:")
        for session, sweep, fn, total, host, _note, _created in sessions:
            lines.append(
                f"  #{session} {sweep} {fn} ({total} task(s)) from {host}"
            )
    if events_tail > 0:
        lines.append("")
        lines.append(f"last {events_tail} event(s):")
        events = broker.events(limit=events_tail)
        if not events:
            lines.append("  (none)")
        for ts, kind, sweep, idx, worker, detail in events:
            where = f"{sweep}[{idx}]" if idx is not None else (sweep or "-")
            lines.append(
                f"  {ts:.2f} {kind:<12} {where}"
                + (f" worker={worker}" if worker else "")
                + (f" {detail}" if detail else "")
            )
    return "\n".join(lines)


def _cmd_status(args) -> None:
    """Report queue states, workers, quarantines, sessions, and drift
    against the golden baseline; with ``--watch``, poll the broker
    and re-render in place until interrupted.

    An unreachable networked broker is a report, not a crash: without
    ``--watch`` it exits with the transport's reason; with ``--watch``
    the snapshot shows the outage and the circuit-breaker state and
    polling continues — the display recovers by itself when the server
    comes back.
    """
    directory = _verb_dir(args, "status")
    if not args.watch:
        try:
            print(_render_status(directory))
        except BrokerError as exc:
            raise SystemExit(f"status: {exc}")
        return
    import time as _time

    interval = args.watch_interval
    broker = None
    try:
        while True:
            try:
                if broker is None:
                    broker = connect(directory)
                snapshot = _render_status(
                    directory, events_tail=10, broker=broker
                )
            except BrokerError as exc:
                state = (
                    broker.breaker_state()
                    if broker is not None and hasattr(broker, "breaker_state")
                    else "unreachable"
                )
                snapshot = (
                    f"{directory}: broker unavailable ({exc})\n"
                    f"transport breaker: {state}; still polling"
                )
            # Clear screen + home, then the snapshot: a cheap in-place
            # re-render with no terminal library dependencies.
            sys.stdout.write("\x1b[2J\x1b[H")
            sys.stdout.write(
                f"watching {directory} every {interval:g}s "
                f"(ctrl-c to stop)\n\n"
            )
            sys.stdout.write(snapshot + "\n")
            sys.stdout.flush()
            _time.sleep(interval)
    except KeyboardInterrupt:
        print()


def _cmd_bless(args) -> None:
    """Record every settled sweep's result digests as the golden
    baseline future runs are diffed against.  Over HTTP the blessing
    runs on the server, where the results DB lives."""
    directory = _verb_dir(args, "bless")
    if directory.startswith(("http://", "https://")):
        try:
            out = connect(directory).bless_all()
        except BrokerError as exc:
            raise SystemExit(f"bless: {exc}")
        for sweep, fn in out.get("skipped", []):
            print(f"skipping {sweep} ({fn}): still running")
        blessed = 0
        for sweep, fn, count in out.get("blessed", []):
            blessed += count
            print(f"blessed {count} result(s) of {sweep} ({fn})")
        if not blessed:
            print("nothing to bless (no settled sweeps with results)")
        return
    broker = Broker(directory)
    db = ResultsDB.for_broker(directory)
    blessed = 0
    for sweep, fn, _total, _traced, _created in broker.sweeps():
        if not broker.settled(sweep):
            print(f"skipping {sweep} ({fn}): still running")
            continue
        rows = broker.result_rows(sweep)
        if not rows:
            continue
        count = db.bless(fn, rows, sweep=sweep)
        blessed += count
        print(f"blessed {count} result(s) of {sweep} ({fn})")
    if not blessed:
        print("nothing to bless (no settled sweeps with results)")


def _cmd_serve(args) -> None:
    """Serve a broker directory over HTTP (see
    :mod:`repro.experiments.broker_net`)."""
    from repro.experiments.broker_net import serve

    directory = _verb_dir(args, "serve")
    if directory.startswith(("http://", "https://")):
        raise SystemExit("serve needs a broker *directory*, not a URL")
    serve(
        directory,
        host=args.host,
        port=args.port,
        lease_ttl=args.lease_ttl,
        backoff_base=args.backoff_base,
        token=args.token,
        readonly=args.readonly,
        verbose=args.log,
    )


_VERBS = {
    "enqueue": _cmd_enqueue,
    "work": _cmd_work,
    "status": _cmd_status,
    "bless": _cmd_bless,
    "serve": _cmd_serve,
}


def main(argv) -> None:
    args = _parse_args(argv)
    if args.names and args.names[0] == "resume":
        if len(args.names) != 2:
            raise SystemExit("usage: python -m repro.experiments resume RUNDIR")
        run_dir = Path(args.names[1])
        merged, chosen = _merge_manifest(run_dir, args)
        _execute(merged, chosen, run_dir)
        return
    if args.names and args.names[0] in _VERBS:
        _VERBS[args.names[0]](args)
        return
    chosen = args.names or list(_EXPERIMENTS)
    for name in chosen:
        if name not in _EXPERIMENTS and name != "telemetry":
            raise SystemExit(
                f"unknown experiment {name!r}; choose from "
                f"{sorted(_EXPERIMENTS) + sorted(_VERBS) + ['resume', 'telemetry']}"
            )
    run_dir = Path(args.run_dir) if args.run_dir else None
    if run_dir is not None:
        _write_manifest(run_dir, args, chosen)
    _execute(args, chosen, run_dir)


if __name__ == "__main__":
    main(sys.argv[1:])
