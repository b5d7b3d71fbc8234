"""Sweep-broker tests: the claim/lease protocol and results DB.

Covers the :class:`~repro.experiments.broker.Broker` state machine
(idempotent enqueue, atomic claims, lease expiry and reclamation,
exponential backoff, poison-task quarantine, idempotent completion),
the :func:`~repro.experiments.broker.worker_loop` drain semantics, the
golden-baseline :class:`~repro.experiments.results_db.ResultsDB`, and
the harness knobs that route ``run_tasks`` through the broker backend.

Every protocol test injects ``now=`` timestamps instead of sleeping,
so lease expiry and backoff windows are exercised deterministically.
The genuinely concurrent scenarios (real worker processes, SIGKILL)
live in ``test_broker_races.py``.
"""

import hashlib
import pickle

import pytest

from repro.errors import BrokerError, ExperimentError, LeaseLostError
from repro.experiments import harness
from repro.experiments.broker import (
    BACKOFF_BASE_ENV,
    BROKER_DIR_ENV,
    Broker,
    LEASE_TTL_ENV,
    task_key,
    worker_loop,
)
from repro.experiments.harness import run_tasks
from repro.experiments.results_db import ResultsDB, format_diff


# Module level so broker payloads can pickle them by reference.
def _square(task):
    return task * task


def _boom(task):
    raise ValueError(f"task {task} exploded")


def _flaky_square(task):
    """Fails on the first attempt per task, succeeds after (the marker
    directory arrives curried into the task tuple)."""
    import pathlib

    value, marker_dir = task
    marker = pathlib.Path(marker_dir) / f"tried-{value}"
    if not marker.exists():
        marker.write_text("1")
        raise RuntimeError(f"transient failure on {value}")
    return value * value


# -- enqueue ----------------------------------------------------------------


def test_enqueue_is_idempotent(tmp_path):
    broker = Broker(tmp_path)
    first = broker.enqueue(_square, [1, 2, 3])
    again = broker.enqueue(_square, [1, 2, 3])
    assert first == again
    assert broker.counts(first) == {
        "pending": 3, "leased": 0, "done": 0, "quarantined": 0,
    }
    assert len(broker.sweeps()) == 1


def test_enqueue_preserves_progress(tmp_path):
    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [1, 2])
    lease = broker.claim("w1")
    broker.complete(lease, 1)
    broker.enqueue(_square, [1, 2])  # resubmission of the same sweep
    counts = broker.counts(sweep)
    assert counts["done"] == 1 and counts["pending"] == 1


def test_sweep_id_depends_on_content(tmp_path):
    broker = Broker(tmp_path)
    assert broker.enqueue(_square, [1, 2]) != broker.enqueue(_square, [1, 3])
    # Traced-ness changes the result shape, so the sweep identity too.
    assert broker.enqueue(_square, [1, 2]) != broker.enqueue(
        _square, [1, 2], traced=True
    )


def test_task_key_is_content_addressed():
    assert task_key(_square, 5) == task_key(_square, 5)
    assert task_key(_square, 5) != task_key(_square, 6)
    assert task_key(_square, 5) != task_key(_boom, 5)


def test_label_count_mismatch_rejected(tmp_path):
    with pytest.raises(BrokerError, match="labels"):
        Broker(tmp_path).enqueue(_square, [1, 2], labels=["only-one"])


def test_unusable_directory_raises_broker_error():
    with pytest.raises(BrokerError, match="cannot open broker directory"):
        Broker("/proc/definitely/not/writable")


# -- claim / lease / reclaim ------------------------------------------------


def test_claim_runs_in_index_order_and_drains(tmp_path):
    broker = Broker(tmp_path)
    broker.enqueue(_square, [7, 8], labels=["a", "b"])
    first = broker.claim("w1")
    second = broker.claim("w1")
    assert (first.label, second.label) == ("a", "b")
    assert first.attempt == 1
    assert broker.claim("w1") is None  # everything leased out


def test_claim_reports_payload(tmp_path):
    broker = Broker(tmp_path)
    broker.enqueue(_square, [7])
    fn, task = broker.claim("w1").load()
    assert fn is _square and task == 7


def test_lease_expiry_race_is_safe(tmp_path):
    """Two workers hold the "same" task near TTL expiry: the slow one's
    heartbeat fails, and whichever completion lands second dedupes."""
    broker = Broker(tmp_path, lease_ttl=10.0, backoff_base=0.0)
    sweep = broker.enqueue(_square, [7])
    slow = broker.claim("slow", now=0.0)
    # Before expiry nothing is offerable; after it, the claim reclaims
    # and re-leases in one transaction.
    assert broker.claim("fast", now=5.0) is None
    fast = broker.claim("fast", now=11.0)
    assert fast is not None and fast.attempt == 2
    with pytest.raises(LeaseLostError):
        broker.heartbeat(slow, now=12.0)
    assert broker.complete(fast, 49) is True
    assert broker.complete(slow, 49) is False  # late completion dedupes
    assert broker.replay(sweep) == {0: 49}
    assert broker.settled(sweep)


def test_reclaim_expired_backs_off_then_quarantines(tmp_path):
    broker = Broker(tmp_path, lease_ttl=10.0, max_attempts=2, backoff_base=4.0)
    sweep = broker.enqueue(_square, [7], labels=["t"])
    broker.claim("w1", now=0.0)
    reclaimed = broker.reclaim_expired(now=20.0)
    assert reclaimed == [(sweep, 0, "t", "pending")]
    # Re-offer backs off: 4.0 * 2**(1-1) past the reclaim instant.
    assert broker.claim("w2", now=21.0) is None
    lease = broker.claim("w2", now=25.0)
    assert lease.attempt == 2
    # Second expiry exhausts the budget: quarantined, with the dead
    # worker blamed in the reason.
    assert broker.reclaim_expired(now=40.0) == [(sweep, 0, "t", "quarantined")]
    (entry,) = broker.quarantined(sweep)
    assert entry[2] == "t" and "w2" in entry[4]
    assert broker.settled(sweep)  # quarantine is terminal: sweep settles


def test_fail_backs_off_then_quarantines(tmp_path):
    broker = Broker(tmp_path, max_attempts=2, backoff_base=1.0)
    sweep = broker.enqueue(_boom, [5], labels=["poison"])
    lease = broker.claim("w1", now=0.0)
    assert broker.fail(lease, ValueError("nope"), now=1.0) == "pending"
    assert broker.claim("w1", now=1.5) is None  # inside the backoff window
    lease = broker.claim("w1", now=3.0)
    assert lease.attempt == 2
    assert broker.fail(lease, ValueError("nope"), now=4.0) == "quarantined"
    (entry,) = broker.quarantined(sweep)
    assert "ValueError: nope" in entry[4]


def test_fail_never_touches_a_reassigned_lease(tmp_path):
    """A worker failing after its lease was reclaimed and re-leased
    must not clobber the new holder's live attempt."""
    broker = Broker(tmp_path, lease_ttl=10.0, backoff_base=0.0)
    broker.enqueue(_square, [7])
    old = broker.claim("old", now=0.0)
    new = broker.claim("new", now=11.0)  # reclaim + re-lease
    assert broker.fail(old, RuntimeError("late"), now=12.0) == "leased"
    broker.heartbeat(new, now=12.0)  # still alive
    assert broker.complete(new, 49) is True


def test_requeue_quarantined_resets_budget(tmp_path):
    broker = Broker(tmp_path, max_attempts=1)
    sweep = broker.enqueue(_square, [7])
    lease = broker.claim("w1", now=0.0)
    broker.fail(lease, ValueError("once"), now=1.0)
    assert broker.counts(sweep)["quarantined"] == 1
    assert broker.requeue_quarantined(sweep) == 1
    lease = broker.claim("w1", now=2.0)
    assert lease is not None and lease.attempt == 1  # fresh budget


def test_active_workers_tracks_live_leases(tmp_path):
    broker = Broker(tmp_path, lease_ttl=10.0)
    broker.enqueue(_square, [1, 2])
    broker.claim("alpha", now=0.0)
    broker.claim("beta", now=0.0)
    assert broker.active_workers(now=5.0) == ["alpha", "beta"]
    assert broker.active_workers(now=11.0) == []


# -- completion / replay ----------------------------------------------------


def test_duplicate_content_computed_once(tmp_path):
    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [3, 4, 3], labels=["a", "b", "a2"])
    done = 0
    while (lease := broker.claim("w1")) is not None:
        broker.complete(lease, _square(lease.load()[1]))
        done += 1
    assert done == 2  # the duplicate task never needed a claim
    assert broker.replay(sweep) == {0: 9, 1: 16, 2: 9}


def test_replay_verifies_digests(tmp_path):
    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [3, 4])
    while (lease := broker.claim("w1")) is not None:
        broker.complete(lease, _square(lease.load()[1]))
    (victim,) = [p for p in broker.results_dir.iterdir() if "-" in p.name][:1]
    payload = bytearray(victim.read_bytes())
    payload[len(payload) // 2] ^= 0x40
    victim.write_bytes(bytes(payload))
    # The rotted result is absent from replay, never returned wrong.
    assert len(broker.replay(sweep)) == 1


def test_replay_skips_other_traced_shape(tmp_path):
    """Traced sweeps record ``(value, blob)`` wrappers; a replay asking
    for the other shape must not see them (wrong type)."""
    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [1, 2])
    broker.complete(broker.claim("w1"), 1, traced=False)
    broker.complete(broker.claim("w1"), (4, b"blob"), traced=True)
    assert broker.replay(sweep, traced=False) == {0: 1}
    assert broker.replay(sweep, traced=True) == {1: (4, b"blob")}


def test_checkpoint_dir_layout(tmp_path):
    broker = Broker(tmp_path / "q")
    key = task_key(_square, 4)
    assert broker.checkpoint_dir(key) == str(tmp_path / "q" / "ckpt" / key)


def test_drop_results_forces_recompute(tmp_path):
    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [3])
    broker.complete(broker.claim("w1"), 9)
    assert broker.drop_results(sweep) == 1
    assert broker.replay(sweep) == {}
    assert broker.counts(sweep)["pending"] == 1


def test_events_audit_trail(tmp_path):
    broker = Broker(tmp_path, max_attempts=1)
    sweep = broker.enqueue(_square, [1, 2])
    broker.complete(broker.claim("w1"), 1)
    broker.fail(broker.claim("w1"), ValueError("x"))
    kinds = [row[1] for row in broker.events(sweep)]
    assert kinds == ["enqueue", "claim", "complete", "claim", "quarantine"]


# -- worker loop ------------------------------------------------------------


def test_worker_loop_drains_queue(tmp_path):
    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [2, 3, 4])
    completed = worker_loop(tmp_path, worker="w1", lease_ttl=5.0)
    assert completed == 3
    assert broker.replay(sweep) == {0: 4, 1: 9, 2: 16}


def test_worker_loop_quarantines_poison_and_finishes_sweep(tmp_path):
    """The acceptance scenario: an always-crashing task is quarantined
    after its retry budget while the rest of the sweep completes."""
    broker = Broker(tmp_path, max_attempts=2, backoff_base=0.0)
    good = broker.enqueue(_square, [5, 6], labels=["g5", "g6"])
    poison = broker.enqueue(_boom, [1], labels=["poison"])
    logs = []
    worker_loop(
        tmp_path, worker="w1", lease_ttl=5.0, max_attempts=2,
        backoff_base=0.0, log=logs.append,
    )
    assert broker.replay(good) == {0: 25, 1: 36}
    (entry,) = broker.quarantined(poison)
    assert entry[2] == "poison" and "exploded" in entry[4]
    assert broker.settled(good) and broker.settled(poison)
    assert any("failed" in line for line in logs)


def test_worker_loop_retries_transient_failures(tmp_path):
    broker = Broker(tmp_path, backoff_base=0.0)
    tasks = [(2, str(tmp_path)), (3, str(tmp_path))]
    sweep = broker.enqueue(_flaky_square, tasks, labels=["f2", "f3"])
    worker_loop(tmp_path, worker="w1", lease_ttl=5.0, backoff_base=0.0)
    assert broker.replay(sweep) == {0: 4, 1: 9}


def test_worker_loop_max_tasks(tmp_path):
    broker = Broker(tmp_path)
    broker.enqueue(_square, [1, 2, 3])
    assert worker_loop(tmp_path, worker="w1", max_tasks=2) == 2
    assert broker.counts()["pending"] == 1


# -- environment knobs ------------------------------------------------------


def test_lease_ttl_env(tmp_path, monkeypatch):
    monkeypatch.setenv(LEASE_TTL_ENV, "7.5")
    assert Broker(tmp_path).lease_ttl == 7.5
    monkeypatch.setenv(LEASE_TTL_ENV, "junk")
    with pytest.raises(BrokerError, match=LEASE_TTL_ENV):
        Broker(tmp_path)


def test_backoff_base_env(tmp_path, monkeypatch):
    monkeypatch.setenv(BACKOFF_BASE_ENV, "0.125")
    assert Broker(tmp_path).backoff_base == 0.125
    monkeypatch.setenv(BACKOFF_BASE_ENV, "junk")
    with pytest.raises(BrokerError, match=BACKOFF_BASE_ENV):
        Broker(tmp_path)


def test_harness_timeout_and_retry_envs(monkeypatch):
    monkeypatch.setenv(harness.TASK_TIMEOUT_ENV, "12.5")
    monkeypatch.setenv(harness.TASK_RETRIES_ENV, "4")
    assert harness.resolve_timeout(None) == 12.5
    assert harness.resolve_retries(None) == 4
    # Explicit arguments beat the environment.
    assert harness.resolve_timeout(3.0) == 3.0
    assert harness.resolve_retries(0) == 0
    monkeypatch.setenv(harness.TASK_TIMEOUT_ENV, "junk")
    with pytest.raises(ExperimentError):
        harness.resolve_timeout(None)


def test_broker_workers_env(monkeypatch):
    monkeypatch.setenv(harness.BROKER_WORKERS_ENV, "0")
    assert harness._broker_local_workers(None, total=8) == 0
    monkeypatch.setenv(harness.BROKER_WORKERS_ENV, "3")
    assert harness._broker_local_workers(None, total=8) == 3
    monkeypatch.delenv(harness.BROKER_WORKERS_ENV)
    # Without the override, local workers never exceed the task count.
    assert harness._broker_local_workers(4, total=2) == 2


# -- run_tasks broker backend ------------------------------------------------


def test_run_tasks_broker_backend_matches_pool(tmp_path):
    out = run_tasks(
        _square, [1, 2, 3], jobs=1, backend="broker",
        broker_dir=tmp_path / "q",
    )
    assert out == [1, 4, 9]


def test_run_tasks_broker_replays_instantly(tmp_path):
    run_tasks(_square, [1, 2], jobs=1, backend="broker", broker_dir=tmp_path)
    logs = []
    # _boom in place of _square: same content keys would recompute if
    # replay missed (different fn -> different keys, so use _square and
    # count the "already complete" log instead).
    again = run_tasks(
        _square, [1, 2], jobs=1, backend="broker", broker_dir=tmp_path,
        log=logs.append,
    )
    assert again == [1, 4]
    assert any("already complete" in line for line in logs)


def _counted_square(task):
    """Squares *value* and leaves one marker file per computation, so a
    test can tell a replay from a recompute."""
    import pathlib

    value, marker_dir = task
    marker = pathlib.Path(marker_dir) / f"computed-{value}"
    with open(marker, "a") as fh:
        fh.write("x")
    return value * value


def _computations(marker_dir) -> int:
    return sum(len(p.read_text()) for p in marker_dir.glob("computed-*"))


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_skips_recorded_results(tmp_path, jobs):
    markers = tmp_path / "markers"
    markers.mkdir()
    tasks = [(value, str(markers)) for value in (1, 2, 3, 4)]
    out = run_tasks(_counted_square, tasks, jobs=jobs, broker_dir=tmp_path / "q")
    assert out == [1, 4, 9, 16]
    assert _computations(markers) == 4
    logs = []
    again = run_tasks(
        _counted_square, tasks, jobs=jobs, broker_dir=tmp_path / "q",
        log=logs.append,
    )
    assert again == out
    assert _computations(markers) == 4  # nothing recomputed
    assert "broker: 4 of 4 task(s) already complete" in logs


def test_run_tasks_broker_env_routing(tmp_path, monkeypatch):
    monkeypatch.setenv(BROKER_DIR_ENV, str(tmp_path / "q"))
    assert run_tasks(_square, [2], jobs=1) == [4]
    assert (tmp_path / "q" / "queue.db").exists()


def test_run_tasks_broker_degrades_to_pool(tmp_path, monkeypatch):
    logs = []
    out = run_tasks(
        _square, [1, 2], jobs=1, backend="broker",
        broker_dir="/proc/definitely/not/writable", log=logs.append,
    )
    assert out == [1, 4]
    assert any("broker unavailable" in line for line in logs)


def test_run_tasks_broker_rescues_quarantined_serially(tmp_path):
    """Poison tasks get one final serial in-parent attempt, so genuine
    poison surfaces its real traceback in the caller."""
    with pytest.raises(ValueError, match="exploded"):
        run_tasks(
            _boom, [1], jobs=1, backend="broker", broker_dir=tmp_path,
            retries=1,
        )


def test_run_tasks_rejects_unknown_backend(tmp_path):
    with pytest.raises(ExperimentError, match="backend"):
        run_tasks(_square, [1], jobs=1, backend="carrier-pigeon")


# -- results DB / golden baseline -------------------------------------------


def test_record_session_idempotent(tmp_path):
    db = ResultsDB.for_broker(tmp_path)
    first = db.record_session("sweep-abc", "m.fn", 4)
    again = db.record_session("sweep-abc", "m.fn", 4)
    assert first == again
    assert len(db.sessions()) == 1


def _sha(value) -> str:
    return hashlib.sha256(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


def test_bless_and_diff_taxonomy(tmp_path):
    db = ResultsDB.for_broker(tmp_path)
    rows = [
        ("a", "key-a", _sha(1)),
        ("b", "key-b", _sha(2)),
        ("c", "key-c", _sha(3)),
    ]
    assert db.bless("m.fn", rows, sweep="sweep-1") == 3
    current = [
        ("a", "key-a", _sha(1)),      # matched
        ("b", "key-b", _sha(99)),     # result drift: same task, new sha
        ("c", "key-c2", _sha(3)),     # task drift: the point changed
        ("d", "key-d", _sha(4)),      # novel
    ]
    diff = db.diff("m.fn", current)
    assert diff.matched == ["a"]
    assert diff.drifted == [("b", _sha(2), _sha(99))]
    assert diff.task_changed == [("c", "key-c", "key-c2")]
    assert diff.novel == ["d"]
    assert diff.missing == []
    assert not diff.clean and diff.baselined
    text = format_diff(diff)
    assert "DRIFTED" in text and "task definition changed" in text


def test_diff_reports_missing_labels(tmp_path):
    db = ResultsDB.for_broker(tmp_path)
    db.bless("m.fn", [("a", "k", _sha(1)), ("b", "k2", _sha(2))])
    diff = db.diff("m.fn", [("a", "k", _sha(1))])
    assert diff.missing == ["b"] and diff.clean


def test_diff_without_baseline_is_novel_only(tmp_path):
    db = ResultsDB.for_broker(tmp_path)
    diff = db.diff("m.fn", [("a", "k", _sha(1))])
    assert not diff.baselined and diff.novel == ["a"]
    assert "no golden baseline" in format_diff(diff)


def test_broker_rows_feed_golden_diff(tmp_path):
    """End to end: a drained sweep blesses cleanly and re-diffs clean."""
    broker = Broker(tmp_path)
    sweep = broker.enqueue(_square, [2, 3], labels=["p2", "p3"])
    worker_loop(tmp_path, worker="w1")
    db = ResultsDB.for_broker(tmp_path)
    rows = broker.result_rows(sweep)
    db.bless("tests._square", rows, sweep=sweep)
    diff = db.diff("tests._square", rows)
    assert diff.clean and len(diff.matched) == 2
