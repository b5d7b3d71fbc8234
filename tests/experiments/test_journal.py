"""Durable-sweep record/replay tests on the broker that backs run dirs.

A ``--run-dir DIR`` sweep runs on the SQLite broker at ``DIR/broker``,
so the record/replay contract of a durable sweep is the broker's:
results recorded by one instance replay from a fresh one, a result
file that is missing or fails its digest check is recomputed rather
than returned wrong, and ``run_tasks`` recomputes only the tasks
without a verified result.  The pool's serial fallback after a worker
death, with no durable directory at all, is covered here too.
"""

import multiprocessing
import os
import pickle
import signal

from repro.experiments.broker import BROKER_DIR_ENV, Broker, task_key
from repro.experiments.harness import run_tasks


# Module level so the parallel and broker paths can pickle them by
# reference.
def _square(task):
    return task * task


def _counted_square(task):
    """Squares *value* and leaves one marker per computation, so a test
    can tell a replay from a recompute."""
    import pathlib

    value, marker_dir = task
    with open(pathlib.Path(marker_dir) / f"computed-{value}", "a") as fh:
        fh.write("x")
    return value * value


def _computations(marker_dir) -> dict:
    return {
        int(p.name.split("-", 1)[1]): len(p.read_text())
        for p in marker_dir.glob("computed-*")
    }


def _kill_worker(task):
    """SIGKILL the pool worker running ``"victim"``; in the parent (the
    serial fallback) every task just completes."""
    if task == "victim" and multiprocessing.current_process().name != (
        "MainProcess"
    ):
        os.kill(os.getpid(), signal.SIGKILL)
    return f"done:{task}"


def _recorded_sweep(tmp_path, values):
    """Run a broker-backed sweep of ``_counted_square`` over *values*;
    returns ``(tasks, broker dir, marker dir, results)``."""
    markers = tmp_path / "markers"
    markers.mkdir()
    qdir = tmp_path / "q"
    tasks = [(value, str(markers)) for value in values]
    out = run_tasks(_counted_square, tasks, jobs=1, broker_dir=qdir)
    return tasks, qdir, markers, out


def _result_file(qdir, fn, task):
    (path,) = (qdir / "results").glob(f"{task_key(fn, task)}-*.pkl")
    return path


# -- record/replay --------------------------------------------------------------


def test_record_and_replay_roundtrip(tmp_path):
    broker = Broker(tmp_path / "sweep")
    sweep = broker.enqueue(_square, [1, 2, 3])
    first, _second, third = (broker.claim("w1") for _ in range(3))
    broker.complete(first, {"ipc": 1.5})
    broker.complete(third, [1, 2, 3])
    assert broker.replay(sweep) == {0: {"ipc": 1.5}, 2: [1, 2, 3]}
    # A fresh instance reads the same state back from disk.
    assert Broker(tmp_path / "sweep").replay(sweep) == {
        0: {"ipc": 1.5},
        2: [1, 2, 3],
    }


def test_rerecord_overwrites(tmp_path):
    """Once a result is dropped, the next recording replaces it."""
    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [1])
    broker.complete(broker.claim("w1"), "first")
    assert broker.drop_results(sweep) == 1
    broker.complete(broker.claim("w1"), "second")
    assert broker.replay(sweep) == {0: "second"}
    assert Broker(tmp_path).replay(sweep) == {0: "second"}


def test_fsync_off_still_records(tmp_path):
    broker = Broker(tmp_path, fsync=False)
    assert broker.fsync is False
    sweep = broker.enqueue(_square, [7])
    broker.complete(broker.claim("w1"), 49)
    assert Broker(tmp_path).replay(sweep) == {0: 49}


# -- run_tasks on a recorded sweep ----------------------------------------------


def test_digest_mismatch_forces_rerun(tmp_path):
    tasks, qdir, markers, out = _recorded_sweep(tmp_path, [3, 4])
    assert out == [9, 16]
    path = _result_file(qdir, _counted_square, tasks[1])
    payload = bytearray(path.read_bytes())
    payload[len(payload) // 2] ^= 0x40
    path.write_bytes(bytes(payload))
    # The rotted result is recomputed, never returned wrong.
    again = run_tasks(_counted_square, tasks, jobs=1, broker_dir=qdir)
    assert again == [9, 16]
    assert _computations(markers) == {3: 1, 4: 2}


def test_missing_result_file_forces_rerun(tmp_path):
    tasks, qdir, markers, out = _recorded_sweep(tmp_path, [5, 6])
    _result_file(qdir, _counted_square, tasks[1]).unlink()
    again = run_tasks(_counted_square, tasks, jobs=1, broker_dir=qdir)
    assert again == out == [25, 36]
    assert _computations(markers) == {5: 1, 6: 2}
    # The recomputed result is recorded again: a third run replays it.
    assert run_tasks(_counted_square, tasks, jobs=1, broker_dir=qdir) == out
    assert _computations(markers) == {5: 1, 6: 2}


def test_partial_journal_recomputes_only_missing(tmp_path):
    markers = tmp_path / "markers"
    markers.mkdir()
    qdir = tmp_path / "q"
    tasks = [(value, str(markers)) for value in (1, 2, 3)]
    broker = Broker(qdir)
    sweep = broker.enqueue(_counted_square, tasks)
    broker.complete_raw(
        sweep, 1, task_key(_counted_square, tasks[1]), repr(tasks[1]),
        "pre", pickle.dumps(99),
    )
    out = run_tasks(_counted_square, tasks, jobs=1, broker_dir=qdir)
    # Task 1's recorded value wins; the others were computed.
    assert out == [1, 99, 9]
    assert _computations(markers) == {1: 1, 3: 1}


def test_journal_path_accepts_plain_directory(tmp_path):
    out = run_tasks(_square, [3], jobs=1, broker_dir=str(tmp_path / "j"))
    assert out == [9]
    assert (tmp_path / "j" / "queue.db").exists()
    assert len(list((tmp_path / "j" / "results").glob("*.pkl"))) == 1


def test_pool_death_without_journal_still_completes(monkeypatch):
    """With no durable directory, a worker death costs nothing but a
    serial rerun of the unfinished tasks."""
    monkeypatch.delenv(BROKER_DIR_ENV, raising=False)
    tasks = ["a", "victim", "b"]
    assert run_tasks(_kill_worker, tasks, jobs=2) == [
        "done:a", "done:victim", "done:b",
    ]
