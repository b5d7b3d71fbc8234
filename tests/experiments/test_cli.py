"""CLI tests for durable runs and the knobs the CLI writes through.

Each test drives ``python -m repro.experiments`` as a real subprocess
with every ``REPRO_*`` variable cleared, so a flag is only honoured if
the CLI itself routes it to where the work happens: ``--run-dir`` plus
``resume`` (after a finished run and after a ``kill -9`` mid-sweep),
``--checkpoint-interval`` on a ``--broker-dir`` run,
``--cache-dir`` / ``REPRO_CACHE_DIR``, and ``--trace-categories`` /
``REPRO_TRACE_CATEGORIES``.
"""

import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _env(env=None):
    merged = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    merged["PYTHONPATH"] = _SRC
    if env:
        merged.update(env)
    return merged


def _argv(argv):
    return [sys.executable, "-m", "repro.experiments", *map(str, argv)]


def _cli(*argv, env=None):
    return subprocess.run(
        _argv(argv), capture_output=True, text=True, timeout=300,
        env=_env(env),
    )


def _snapshots(broker_dir: Path) -> list:
    return sorted(broker_dir.glob("ckpt/**/*.ckpt"))


def test_run_dir_resume_replays_every_task(tmp_path):
    """A finished run-dir sweep resumes from its broker: same stdout,
    every sweep reported complete, no task claimed again."""
    run = tmp_path / "run"
    # A sparse checkpoint cadence keeps the run cheap; checkpoint
    # placement never changes results.
    first = _cli(
        "--run-dir", run, "--jobs", "1", "--log",
        "--checkpoint-interval", "1e6", "fig6",
    )
    assert first.returncode == 0, first.stderr
    assert "claimed" in first.stderr
    assert (run / "manifest.json").exists()
    assert (run / "broker" / "queue.db").exists()

    resumed = _cli("resume", run)
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == first.stdout
    complete = re.findall(
        r"broker: (\d+) of (\d+) task\(s\) already complete", resumed.stderr
    )
    assert complete and all(done == total for done, total in complete)
    assert "claimed" not in resumed.stderr

    status = _cli("status", "--broker-dir", run / "broker")
    assert status.returncode == 0, status.stderr
    assert "[settled]" in status.stdout
    assert "[running]" not in status.stdout
    assert "QUARANTINED" not in status.stdout


def test_run_dir_killed_mid_sweep_resumes_byte_identical(tmp_path):
    """``kill -9`` of a run-dir sweep and all its workers as soon as a
    task has checkpointed; ``resume`` finishes the sweep with stdout
    byte-identical to a plain run."""
    run = tmp_path / "run"
    # A short lease TTL so the resume reclaims the dead workers' tasks
    # quickly; leases never change results.
    env = {"REPRO_LEASE_TTL": "2"}
    proc = subprocess.Popen(
        _argv(["--run-dir", run, "--checkpoint-interval", "5",
               "--jobs", "2", "fig6"]),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=_env(env), start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 120
        while not _snapshots(run / "broker"):
            assert proc.poll() is None, "run ended before any checkpoint"
            assert time.monotonic() < deadline, "no checkpoint appeared"
            time.sleep(0.01)
    finally:
        # The whole session: the CLI and its broker workers.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL

    # The kill landed mid-sweep.
    status = _cli("status", "--broker-dir", run / "broker")
    assert status.returncode == 0, status.stderr
    assert "[running]" in status.stdout

    resumed = _cli("resume", run, env=env)
    assert resumed.returncode == 0, resumed.stderr
    plain = _cli("--jobs", "2", "fig6")
    assert plain.returncode == 0, plain.stderr
    assert resumed.stdout == plain.stdout


def test_checkpoint_interval_reaches_broker_dir_runs(tmp_path):
    """``--checkpoint-interval`` is honoured without ``--run-dir``."""
    sparse = _cli(
        "--broker-dir", tmp_path / "sparse", "--jobs", "1",
        "--checkpoint-interval", "1e6", "fig6",
    )
    dense = _cli(
        "--broker-dir", tmp_path / "dense", "--jobs", "1",
        "--checkpoint-interval", "100", "fig6",
    )
    assert sparse.returncode == 0, sparse.stderr
    assert dense.returncode == 0, dense.stderr
    assert sparse.stdout == dense.stdout
    assert _snapshots(tmp_path / "sparse") == []
    assert _snapshots(tmp_path / "dense")


def test_cache_dir_second_run_hits_every_entry(tmp_path):
    """``--cache-dir`` persists the pipeline cache; a second process
    pointed at it through ``REPRO_CACHE_DIR`` rebuilds nothing."""
    cache = tmp_path / "cache"
    cold = _cli("--cache-dir", cache, "--jobs", "1", "table1")
    assert cold.returncode == 0, cold.stderr
    assert "(0% hit rate" in cold.stderr
    warm = _cli("--jobs", "1", "table1", env={"REPRO_CACHE_DIR": str(cache)})
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold.stdout
    assert re.search(r"/ 0 misses \(100% hit rate", warm.stderr), warm.stderr


def _trace_categories(trace_dir: Path) -> set:
    trace = json.loads((trace_dir / "trace.json").read_text())
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    return {event["cat"] for event in events if event.get("ph") != "M"}


def test_trace_categories_select_recorded_events(tmp_path):
    """Only the listed categories reach the trace, whether chosen by
    ``--trace-categories`` or by ``REPRO_TRACE_CATEGORIES``."""
    flagged = _cli(
        "--trace-out", tmp_path / "flag", "--trace-categories", "sched",
        "--jobs", "1", "table1",
    )
    assert flagged.returncode == 0, flagged.stderr
    assert _trace_categories(tmp_path / "flag") == {"sched"}
    via_env = _cli(
        "--trace-out", tmp_path / "env", "--jobs", "1", "table1",
        env={"REPRO_TRACE_CATEGORIES": "sched,task"},
    )
    assert via_env.returncode == 0, via_env.stderr
    assert _trace_categories(tmp_path / "env") == {"sched", "task"}
    assert via_env.stdout == flagged.stdout
