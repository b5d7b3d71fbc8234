"""Fault-tolerant sweep broker: a claim/lease task queue on SQLite.

The harness's :func:`~repro.experiments.harness.run_tasks` fans a sweep
out over a single-host process pool; this module promotes the same
sweep into *jobs anyone can submit*.  An **enqueue** step shreds the
sweep into content-keyed claimable tasks in a broker directory (shared
filesystem, one ``queue.db`` SQLite file — stdlib only, no new
dependencies); **workers** on any host claim tasks one at a time and
record results; the submitter (or anyone) replays the completed sweep
in task order.  Robustness is the headline — every failure mode has a
deterministic recovery path:

worker death
    A claim is a *lease* with a TTL.  Workers renew it from a
    heartbeat thread; a ``kill -9``'d worker stops heartbeating, its
    lease expires, and the task is re-offered to the next claimer
    (:meth:`Broker.reclaim_expired`, run automatically inside every
    claim).  Nothing is lost and nothing needs manual intervention.

poison tasks
    Every claim consumes one attempt from a bounded budget.  Re-offers
    back off exponentially (``backoff_base * 2**(attempt-1)``), and a
    task that exhausts its budget is **quarantined**: parked in a
    terminal state with its blamed error, visible in ``status``, while
    the rest of the sweep completes.  One crashing task cannot take a
    whole figure down.

lease races
    Near TTL expiry two workers can hold the "same" task — the lease
    system makes that safe rather than impossible.  Results are
    recorded **idempotently by content key**: the result file is named
    by its own digest (two writers can never tear each other's bytes)
    and a single ``INSERT OR IGNORE`` decides the canonical completion.
    Duplicate completions dedupe deterministically; any interleaving of
    completions yields one canonical result set.

tasks themselves crash-safe
    Each task runs with its checkpoint directory exported
    (``ckpt/<key>/`` under the broker root, via
    :func:`~repro.sim.checkpoint.task_checkpoint_dir`), so
    checkpoint-aware point functions resume mid-simulation even when
    their task is reclaimed by another worker.

Content keys hash the point function's reference plus the pickled task
payload, so identical work enqueued twice — a resubmitted sweep, or
the same parameter point appearing in two places — maps to the same
key and is computed once.  Sweep ids are derived from the content keys
too, making :meth:`Broker.enqueue` idempotent end to end: re-running
an interrupted submission re-offers only what never finished.

Worker hosts honor *their own* core budgets: nothing about worker
counts is ever written into the queue, and :func:`worker_loop` /
the ``work`` CLI verb resolve ``REPRO_JOBS`` from the worker host's
environment at claim time, not the enqueuing host's.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import socket
import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.errors import BrokerError, BrokerUnavailableError, LeaseLostError
from repro.sim.checkpoint import task_checkpoint_dir
from repro.taxonomy import failed_reason, lease_expired_reason
from repro.store import atomic_publish, default_store
from repro.telemetry.context import current_recorder

__all__ = [
    "BACKOFF_BASE_ENV",
    "BROKER_DIR_ENV",
    "BROKER_GRACE_ENV",
    "BROKER_URL_ENV",
    "Broker",
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_DOWN_GRACE",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_MAX_ATTEMPTS",
    "LEASE_TTL_ENV",
    "Lease",
    "PRIORITY_ENV",
    "connect",
    "prepare_enqueue",
    "resolve_down_grace",
    "task_key",
    "worker_loop",
]

#: Environment variable naming the broker directory; ``run_tasks``
#: routes sweeps through it when set (see ``backend="broker"``).
BROKER_DIR_ENV = "REPRO_BROKER_DIR"

#: Environment variable naming a networked broker server
#: (``http(s)://host:port``); same routing as ``REPRO_BROKER_DIR`` but
#: over the HTTP transport of :mod:`repro.experiments.broker_net`.
BROKER_URL_ENV = "REPRO_BROKER_URL"

#: Environment variable giving enqueued sweeps a default priority
#: (``--priority``); higher claims first, 0 when unset.
PRIORITY_ENV = "REPRO_SWEEP_PRIORITY"

#: Environment variable bounding how long a worker or submitter keeps
#: polling a hard-down networked broker before abandoning the wait.
BROKER_GRACE_ENV = "REPRO_BROKER_GRACE"

#: Default grace window (seconds) for ``REPRO_BROKER_GRACE``.
DEFAULT_DOWN_GRACE = 60.0

#: Environment variable overriding the retry backoff base (seconds).
BACKOFF_BASE_ENV = "REPRO_BACKOFF_BASE"

#: Environment variable overriding the lease TTL (seconds).  Read on
#: each host independently; enqueuers and workers sharing a broker
#: directory should agree on it (a worker renews at a third of its own
#: TTL, so a modestly shorter enqueuer TTL only reclaims faster).
LEASE_TTL_ENV = "REPRO_LEASE_TTL"

#: Seconds a lease lives between heartbeats.  Workers renew at a third
#: of this, so a healthy worker never comes near expiry while a dead
#: one is reclaimed within one TTL.
DEFAULT_LEASE_TTL = 30.0

#: Claims allowed per task before quarantine (first attempt included).
DEFAULT_MAX_ATTEMPTS = 3

#: Default exponential-backoff base between re-offers of a failed task.
DEFAULT_BACKOFF_BASE = 0.5

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sweeps (
    sweep   TEXT PRIMARY KEY,
    fn      TEXT NOT NULL,
    total   INTEGER NOT NULL,
    traced  INTEGER NOT NULL DEFAULT 0,
    created REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS tasks (
    sweep      TEXT NOT NULL,
    idx        INTEGER NOT NULL,
    key        TEXT NOT NULL,
    label      TEXT NOT NULL,
    payload    BLOB NOT NULL,
    state      TEXT NOT NULL DEFAULT 'pending',
    attempts   INTEGER NOT NULL DEFAULT 0,
    not_before REAL NOT NULL DEFAULT 0,
    lease_owner    TEXT,
    lease_deadline REAL,
    quarantine_reason TEXT,
    PRIMARY KEY (sweep, idx)
);
CREATE INDEX IF NOT EXISTS tasks_by_state ON tasks (state, not_before);
CREATE TABLE IF NOT EXISTS results (
    sweep    TEXT NOT NULL,
    key      TEXT NOT NULL,
    label    TEXT NOT NULL,
    file     TEXT NOT NULL,
    sha256   TEXT NOT NULL,
    traced   INTEGER NOT NULL DEFAULT 0,
    worker   TEXT,
    recorded REAL NOT NULL,
    PRIMARY KEY (sweep, key)
);
CREATE TABLE IF NOT EXISTS events (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    ts     REAL NOT NULL,
    kind   TEXT NOT NULL,
    sweep  TEXT,
    idx    INTEGER,
    worker TEXT,
    detail TEXT
);
CREATE TABLE IF NOT EXISTS idempotency (
    key      TEXT PRIMARY KEY,
    response TEXT NOT NULL,
    ts       REAL NOT NULL
);
"""

#: Seconds a served idempotency-key response stays replayable.  Long
#: enough to cover any client retry schedule, short enough that the
#: table never grows past one sweep's worth of mutations.
IDEMPOTENCY_TTL = 3600.0


def resolve_down_grace(down_grace: Optional[float] = None) -> float:
    """The effective grace window for polling an unreachable broker:
    the explicit argument, else ``REPRO_BROKER_GRACE``, else 60 s."""
    if down_grace is not None:
        return float(down_grace)
    raw = os.environ.get(BROKER_GRACE_ENV, "").strip()
    if raw:
        try:
            return float(raw)
        except ValueError:
            raise BrokerError(
                f"{BROKER_GRACE_ENV} must be a number, got {raw!r}"
            ) from None
    return DEFAULT_DOWN_GRACE


def _resolve_priority(priority: Optional[int]) -> int:
    if priority is not None:
        return int(priority)
    raw = os.environ.get(PRIORITY_ENV, "").strip()
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise BrokerError(
            f"{PRIORITY_ENV} must be an integer, got {raw!r}"
        ) from None


def prepare_enqueue(
    fn: Callable,
    tasks: Sequence,
    labels: Optional[Sequence[str]] = None,
    traced: bool = False,
) -> tuple:
    """Shred a sweep into its wire form: ``(ref, sweep, items)`` where
    *items* is ``[(key, label, payload), ...]``.

    The pure half of :meth:`Broker.enqueue`, shared with the HTTP
    transport so a sweep enqueued over the network derives the exact
    same content keys and sweep id as a filesystem enqueue — the
    foundation of cross-backend byte-identity.
    """
    tasks = list(tasks)
    if labels is None:
        labels = [repr(task) for task in tasks]
    elif len(labels) != len(tasks):
        raise BrokerError(
            f"got {len(labels)} labels for {len(tasks)} tasks"
        )
    ref = (
        f"{getattr(fn, '__module__', '?')}."
        f"{getattr(fn, '__qualname__', repr(fn))}"
    )
    items = [
        (
            task_key(fn, task),
            str(label),
            pickle.dumps((fn, task), protocol=pickle.HIGHEST_PROTOCOL),
        )
        for task, label in zip(tasks, labels)
    ]
    # Traced sweeps record (value, telemetry blob) wrappers — a
    # different result shape, so a different sweep identity.  The
    # priority is deliberately NOT part of the identity: re-submitting
    # the same work at a new priority re-ranks it, never forks it.
    h = hashlib.sha256(ref.encode("utf-8"))
    if traced:
        h.update(b"\x01traced")
    for key, _label, _payload in items:
        h.update(b"\x00")
        h.update(key.encode("ascii"))
    sweep = f"sweep-{h.hexdigest()[:12]}"
    return ref, sweep, items


def task_key(fn: Callable, task) -> str:
    """Content key of one task: the point function's reference hashed
    with the pickled task payload.

    Identical work maps to the same key whatever sweep, index, or host
    it is enqueued from — the unit of idempotent result recording.
    """
    ref = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
    h = hashlib.sha256()
    h.update(ref.encode("utf-8"))
    h.update(b"\x00")
    h.update(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
    return h.hexdigest()[:32]


def default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


class Lease:
    """One worker's claim on one task, valid until ``deadline``."""

    __slots__ = (
        "sweep", "index", "key", "label", "payload",
        "attempt", "deadline", "worker",
    )

    def __init__(self, sweep, index, key, label, payload, attempt, deadline,
                 worker):
        self.sweep = sweep
        self.index = index
        self.key = key
        self.label = label
        self.payload = payload
        self.attempt = attempt
        self.deadline = deadline
        self.worker = worker

    def load(self) -> tuple:
        """Unpickle ``(fn, task)`` from the claimed payload."""
        return pickle.loads(self.payload)

    def __repr__(self):
        return (
            f"Lease({self.sweep}[{self.index}] {self.label!r} "
            f"attempt={self.attempt} worker={self.worker})"
        )


class Broker:
    """A claim/lease task queue over one broker directory.

    Layout::

        queue.db                       tasks / results / events (SQLite)
        results/<key>-<digest>.pkl     pickled result payloads
        ckpt/<key>/                    per-task simulation checkpoints

    Every instance opens its own SQLite connections (one per thread —
    heartbeat threads renew through their own handle), so any number of
    worker processes on any number of hosts can share the directory.
    All state transitions run inside ``BEGIN IMMEDIATE`` transactions:
    claims are atomic, and two workers can never claim the same live
    lease.

    Args:
        directory: the broker root (created unless ``create=False``).
        lease_ttl: seconds a claim stays valid without a heartbeat.
        max_attempts: claims allowed per task before quarantine.
        backoff_base: exponential-backoff base (seconds) between
            re-offers; the ``REPRO_BACKOFF_BASE`` environment variable
            when ``None``, falling back to 0.5 s.
        fsync: fsync result files before publishing them (disable only
            in tests, where losing a result to power loss is fine).

    Raises:
        BrokerError: the directory (or its database) cannot be
            created/opened — callers degrade to the pool backend.
    """

    def __init__(
        self,
        directory,
        lease_ttl: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: Optional[float] = None,
        fsync: bool = True,
    ):
        if lease_ttl is None:
            raw = os.environ.get(LEASE_TTL_ENV, "").strip()
            try:
                lease_ttl = float(raw) if raw else DEFAULT_LEASE_TTL
            except ValueError:
                raise BrokerError(
                    f"{LEASE_TTL_ENV} must be a number, got {raw!r}"
                ) from None
        if lease_ttl <= 0:
            raise BrokerError(f"lease_ttl must be positive, got {lease_ttl}")
        if max_attempts < 1:
            raise BrokerError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if backoff_base is None:
            raw = os.environ.get(BACKOFF_BASE_ENV, "").strip()
            try:
                backoff_base = float(raw) if raw else DEFAULT_BACKOFF_BASE
            except ValueError:
                raise BrokerError(
                    f"{BACKOFF_BASE_ENV} must be a number, got {raw!r}"
                ) from None
        if backoff_base < 0:
            raise BrokerError(
                f"backoff_base must be >= 0, got {backoff_base}"
            )
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.fsync = bool(fsync)
        self.directory = Path(directory)
        self.db_path = self.directory / "queue.db"
        self.results_dir = self.directory / "results"
        self._local = threading.local()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.results_dir.mkdir(exist_ok=True)
            # executescript commits on its own; keep it out of _txn.
            self._conn().executescript(_SCHEMA)
            try:
                # Migration for queues created before sweep priorities:
                # CREATE TABLE IF NOT EXISTS never adds columns.
                self._conn().execute(
                    "ALTER TABLE tasks "
                    "ADD COLUMN priority INTEGER NOT NULL DEFAULT 0"
                )
            except sqlite3.OperationalError:
                pass  # column already present
        except (OSError, sqlite3.Error) as exc:
            raise BrokerError(
                f"cannot open broker directory {directory}: {exc}"
            ) from exc

    @property
    def target(self) -> str:
        """The string another process would :func:`connect` to."""
        return str(self.directory)

    # -- plumbing -----------------------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(
                str(self.db_path), timeout=30.0, isolation_level=None
            )
            conn.execute("PRAGMA busy_timeout = 30000")
            try:
                conn.execute("PRAGMA journal_mode = WAL")
            except sqlite3.Error:
                pass  # WAL unsupported on this filesystem; default is fine
            self._local.conn = conn
        return conn

    class _Txn:
        def __init__(self, conn):
            self.conn = conn

        def __enter__(self):
            self.conn.execute("BEGIN IMMEDIATE")
            return self.conn.cursor()

        def __exit__(self, exc_type, exc, tb):
            if exc_type is None:
                self.conn.execute("COMMIT")
            else:
                self.conn.execute("ROLLBACK")
            return False

    def _txn(self) -> "_Txn":
        return self._Txn(self._conn())

    def _event(self, cur, kind, sweep=None, idx=None, worker=None,
               detail=None, now=None) -> None:
        cur.execute(
            "INSERT INTO events (ts, kind, sweep, idx, worker, detail) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (now if now is not None else time.time(),
             kind, sweep, idx, worker, detail),
        )
        rec = current_recorder()
        if rec.enabled:
            rec.incr(f"broker.{kind}")
            if rec.wants("broker"):
                run = getattr(self._local, "telemetry_run", None)
                if run is None:
                    run = rec.begin_run(
                        f"broker:{worker or default_worker_id()}", clock="wall"
                    )
                    self._local.telemetry_run = run
                rec.instant(
                    "broker", kind, time.perf_counter(), run=run,
                    args={"sweep": sweep, "idx": idx, "detail": detail},
                )

    # -- enqueue ------------------------------------------------------------

    def enqueue(
        self,
        fn: Callable,
        tasks: Sequence,
        labels: Optional[Sequence[str]] = None,
        sweep: Optional[str] = None,
        traced: bool = False,
        priority: Optional[int] = None,
    ) -> str:
        """Shred a sweep into claimable tasks; returns the sweep id.

        Idempotent: the sweep id is derived from the content keys, so
        re-enqueueing the same work is a no-op that leaves existing
        progress (done/quarantined states, recorded results) intact —
        except the *priority* (``REPRO_SWEEP_PRIORITY`` when ``None``),
        which re-ranks the sweep's still-pending tasks.
        """
        ref, derived, items = prepare_enqueue(
            fn, tasks, labels=labels, traced=traced
        )
        return self.enqueue_raw(
            ref, items, sweep=sweep or derived, traced=traced,
            priority=_resolve_priority(priority),
        )

    def enqueue_raw(
        self,
        ref: str,
        items: Sequence,
        sweep: str,
        traced: bool = False,
        priority: int = 0,
    ) -> str:
        """Enqueue pre-shredded ``(key, label, payload)`` *items* under
        *sweep* — the transaction half of :meth:`enqueue`, called
        directly by the HTTP server with items shredded client-side."""
        priority = int(priority)
        now = time.time()
        with self._txn() as cur:
            fresh = cur.execute(
                "INSERT OR IGNORE INTO sweeps "
                "(sweep, fn, total, traced, created) VALUES (?, ?, ?, ?, ?)",
                (sweep, ref, len(items), int(bool(traced)), now),
            ).rowcount
            for idx, (key, label, payload) in enumerate(items):
                cur.execute(
                    "INSERT OR IGNORE INTO tasks "
                    "(sweep, idx, key, label, payload, priority) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (sweep, idx, key, str(label), payload, priority),
                )
            if not fresh:
                # Re-submission at a new priority re-ranks whatever has
                # not been claimed yet; settled rows keep their state.
                cur.execute(
                    "UPDATE tasks SET priority = ? "
                    "WHERE sweep = ? AND priority != ?",
                    (priority, sweep, priority),
                )
            if fresh:
                self._event(
                    cur, "enqueue", sweep=sweep,
                    detail=f"{len(items)} task(s) fn={ref}"
                    + (f" priority={priority}" if priority else ""),
                    now=now,
                )
        return sweep

    # -- claim / lease ------------------------------------------------------

    def claim(
        self, worker: Optional[str] = None, now: Optional[float] = None
    ) -> Optional[Lease]:
        """Atomically claim one runnable task, or ``None`` if none is
        currently offerable (queue drained, every offer backing off, or
        everything leased out).

        Expired leases are reclaimed first, inside the same
        transaction, so a claim right after a worker death re-offers
        the dead worker's task immediately.
        """
        worker = worker or default_worker_id()
        now = time.time() if now is None else now
        with self._txn() as cur:
            self._reclaim_locked(cur, now)
            # Highest priority band first; FIFO within a band (rowid is
            # insertion order, which re-offers keep — a retried task
            # never loses its place in line).
            row = cur.execute(
                "SELECT sweep, idx, key, label, payload, attempts "
                "FROM tasks WHERE state = 'pending' AND not_before <= ? "
                "ORDER BY priority DESC, rowid LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None
            sweep, idx, key, label, payload, attempts = row
            deadline = now + self.lease_ttl
            cur.execute(
                "UPDATE tasks SET state = 'leased', attempts = ?, "
                "lease_owner = ?, lease_deadline = ? "
                "WHERE sweep = ? AND idx = ?",
                (attempts + 1, worker, deadline, sweep, idx),
            )
            self._event(
                cur, "claim", sweep=sweep, idx=idx, worker=worker,
                detail=f"attempt {attempts + 1}/{self.max_attempts}", now=now,
            )
        return Lease(
            sweep, idx, key, label, payload, attempts + 1, deadline, worker
        )

    def heartbeat(self, lease: Lease, now: Optional[float] = None) -> float:
        """Renew *lease*, returning the new deadline.

        Raises:
            LeaseLostError: the lease expired and was reclaimed (or the
                task was completed/quarantined) — the worker should
                abandon the attempt; a late completion is still safe to
                record and will simply dedupe.
        """
        now = time.time() if now is None else now
        deadline = now + self.lease_ttl
        with self._txn() as cur:
            changed = cur.execute(
                "UPDATE tasks SET lease_deadline = ? "
                "WHERE sweep = ? AND idx = ? AND state = 'leased' "
                "AND lease_owner = ?",
                (deadline, lease.sweep, lease.index, lease.worker),
            ).rowcount
        if not changed:
            raise LeaseLostError(
                f"lease on {lease.sweep}[{lease.index}] ({lease.label}) "
                f"lost by {lease.worker}"
            )
        lease.deadline = deadline
        return deadline

    def reclaim_expired(self, now: Optional[float] = None) -> list:
        """Re-offer every task whose lease deadline has passed.

        Returns ``(sweep, idx, label, new_state)`` tuples for the
        reclaimed tasks (``new_state`` is ``pending`` or
        ``quarantined``).  Also run automatically inside every claim.
        """
        now = time.time() if now is None else now
        with self._txn() as cur:
            return self._reclaim_locked(cur, now)

    def _reclaim_locked(self, cur, now: float) -> list:
        rows = cur.execute(
            "SELECT sweep, idx, label, attempts, lease_owner FROM tasks "
            "WHERE state = 'leased' AND lease_deadline <= ?",
            (now,),
        ).fetchall()
        out = []
        for sweep, idx, label, attempts, owner in rows:
            if attempts >= self.max_attempts:
                reason = lease_expired_reason(
                    attempts, self.max_attempts, owner
                )
                cur.execute(
                    "UPDATE tasks SET state = 'quarantined', "
                    "lease_owner = NULL, lease_deadline = NULL, "
                    "quarantine_reason = ? WHERE sweep = ? AND idx = ?",
                    (reason, sweep, idx),
                )
                self._event(
                    cur, "quarantine", sweep=sweep, idx=idx, worker=owner,
                    detail=reason, now=now,
                )
                out.append((sweep, idx, label, "quarantined"))
            else:
                not_before = now + self.backoff_base * (2 ** (attempts - 1))
                cur.execute(
                    "UPDATE tasks SET state = 'pending', lease_owner = NULL, "
                    "lease_deadline = NULL, not_before = ? "
                    "WHERE sweep = ? AND idx = ?",
                    (not_before, sweep, idx),
                )
                self._event(
                    cur, "reclaim", sweep=sweep, idx=idx, worker=owner,
                    detail=f"lease expired after attempt {attempts}", now=now,
                )
                out.append((sweep, idx, label, "pending"))
        return out

    # -- completion ---------------------------------------------------------

    def complete(
        self,
        lease: Lease,
        value,
        traced: bool = False,
        now: Optional[float] = None,
    ) -> bool:
        """Record *value* as the result of the leased task.

        Idempotent by content key: the first completion for a key wins
        and later ones dedupe (returning ``False``) — safe to call even
        after the lease was lost to another worker.  The result file is
        published under a digest-qualified name *before* the database
        row, so a crash between the two leaves at worst an orphaned
        file, never a recorded result with missing bytes; and two
        racing writers can never corrupt each other (same digest means
        same bytes, different digests mean different files).
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        return self.complete_raw(
            lease.sweep, lease.index, lease.key, lease.label, lease.worker,
            payload, traced=traced, now=now,
        )

    def complete_raw(
        self,
        sweep: str,
        index: int,
        key: str,
        label: str,
        worker: Optional[str],
        payload: bytes,
        traced: bool = False,
        now: Optional[float] = None,
    ) -> bool:
        """Record already-pickled result *payload* — the durable half
        of :meth:`complete`, called directly by the HTTP server with
        bytes pickled client-side (the digest discipline is identical,
        so retried network completions converge the same way racing
        local ones always have)."""
        now = time.time() if now is None else now
        digest = hashlib.sha256(payload).hexdigest()
        name = f"{key}-{digest[:12]}.pkl"
        path = self.results_dir / name
        if not path.exists():
            tmp = path.with_name(
                f"{name}.{os.getpid()}.{threading.get_ident()}.tmp"
            )
            with open(tmp, "wb") as fh:
                fh.write(payload)
                if self.fsync:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        # Mirror the result into the shared artifact store (if one is
        # configured) so replays on other hosts can fetch it by digest.
        # Best-effort: a dead store tier never fails a completion.
        store = default_store()
        if store is not None:
            store.put_object(payload)
        with self._txn() as cur:
            recorded = cur.execute(
                "INSERT OR IGNORE INTO results "
                "(sweep, key, label, file, sha256, traced, worker, recorded) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (sweep, key, label, name, digest,
                 int(bool(traced)), worker, now),
            ).rowcount == 1
            # Settle every task row sharing the key (duplicate content
            # within a sweep is computed once).
            cur.execute(
                "UPDATE tasks SET state = 'done', lease_owner = NULL, "
                "lease_deadline = NULL, quarantine_reason = NULL "
                "WHERE sweep = ? AND key = ? AND state != 'done'",
                (sweep, key),
            )
            self._event(
                cur,
                "complete" if recorded else "dedupe",
                sweep=sweep, idx=index, worker=worker,
                detail=digest[:12], now=now,
            )
        return recorded

    # -- idempotency keys (served transport) --------------------------------

    def idempotent_response(self, key: str) -> Optional[str]:
        """The response previously served for idempotency key *key*, or
        ``None`` if this key has not been (durably) served yet."""
        row = self._conn().execute(
            "SELECT response FROM idempotency WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row else None

    def store_idempotent(
        self, key: str, response: str, now: Optional[float] = None
    ) -> None:
        """Durably record *response* for *key* so a client retry of the
        same mutation (dropped response, torn connection) replays the
        original outcome instead of re-executing it.  Entries expire
        after :data:`IDEMPOTENCY_TTL` — far beyond any retry budget."""
        now = time.time() if now is None else now
        with self._txn() as cur:
            cur.execute(
                "INSERT OR REPLACE INTO idempotency (key, response, ts) "
                "VALUES (?, ?, ?)",
                (key, response, now),
            )
            cur.execute(
                "DELETE FROM idempotency WHERE ts < ?",
                (now - IDEMPOTENCY_TTL,),
            )

    def fail(
        self, lease: Lease, error, now: Optional[float] = None
    ) -> str:
        """Report a failed attempt; returns the task's new state
        (``pending`` for a backed-off re-offer, ``quarantined`` once
        the attempt budget is spent)."""
        now = time.time() if now is None else now
        detail = f"{type(error).__name__}: {error}" if isinstance(
            error, BaseException
        ) else str(error)
        with self._txn() as cur:
            row = cur.execute(
                "SELECT attempts, state, lease_owner FROM tasks "
                "WHERE sweep = ? AND idx = ?",
                (lease.sweep, lease.index),
            ).fetchone()
            if row is None:
                raise BrokerError(
                    f"no such task {lease.sweep}[{lease.index}]"
                )
            attempts, state, owner = row
            if state != "leased" or owner != lease.worker:
                # Reclaimed (and possibly re-leased to another worker)
                # while we were failing: that attempt was already
                # charged at reclaim time — never fail someone else's
                # live lease.
                return state
            if attempts >= self.max_attempts:
                reason = failed_reason(attempts, self.max_attempts, detail)
                cur.execute(
                    "UPDATE tasks SET state = 'quarantined', "
                    "lease_owner = NULL, lease_deadline = NULL, "
                    "quarantine_reason = ? WHERE sweep = ? AND idx = ?",
                    (reason, lease.sweep, lease.index),
                )
                self._event(
                    cur, "quarantine", sweep=lease.sweep, idx=lease.index,
                    worker=lease.worker, detail=reason, now=now,
                )
                return "quarantined"
            not_before = now + self.backoff_base * (2 ** (attempts - 1))
            cur.execute(
                "UPDATE tasks SET state = 'pending', lease_owner = NULL, "
                "lease_deadline = NULL, not_before = ? "
                "WHERE sweep = ? AND idx = ?",
                (not_before, lease.sweep, lease.index),
            )
            self._event(
                cur, "fail", sweep=lease.sweep, idx=lease.index,
                worker=lease.worker, detail=detail, now=now,
            )
            return "pending"

    # -- inspection / replay ------------------------------------------------

    def counts(self, sweep: Optional[str] = None) -> dict:
        """``{state: task count}``, for one sweep or the whole queue."""
        query = "SELECT state, COUNT(*) FROM tasks"
        args: tuple = ()
        if sweep is not None:
            query += " WHERE sweep = ?"
            args = (sweep,)
        rows = self._conn().execute(query + " GROUP BY state", args).fetchall()
        out = {"pending": 0, "leased": 0, "done": 0, "quarantined": 0}
        out.update(dict(rows))
        return out

    def sweeps(self) -> list:
        """``(sweep, fn, total, traced, created)`` rows, oldest first."""
        return self._conn().execute(
            "SELECT sweep, fn, total, traced, created FROM sweeps "
            "ORDER BY created"
        ).fetchall()

    def sweep_traced(self, sweep: str) -> bool:
        """Whether *sweep* records traced ``(value, blob)`` results."""
        row = self._conn().execute(
            "SELECT traced FROM sweeps WHERE sweep = ?", (sweep,)
        ).fetchone()
        return bool(row and row[0])

    def quarantined(self, sweep: Optional[str] = None) -> list:
        """``(sweep, idx, label, attempts, reason)`` for every
        quarantined task."""
        query = (
            "SELECT sweep, idx, label, attempts, quarantine_reason "
            "FROM tasks WHERE state = 'quarantined'"
        )
        args: tuple = ()
        if sweep is not None:
            query += " AND sweep = ?"
            args = (sweep,)
        return self._conn().execute(query + " ORDER BY sweep, idx", args).fetchall()

    def requeue_quarantined(self, sweep: Optional[str] = None) -> int:
        """Give every quarantined task a fresh attempt budget; returns
        how many were re-offered (operator escape hatch)."""
        with self._txn() as cur:
            query = (
                "UPDATE tasks SET state = 'pending', attempts = 0, "
                "not_before = 0, quarantine_reason = NULL "
                "WHERE state = 'quarantined'"
            )
            args: tuple = ()
            if sweep is not None:
                query += " AND sweep = ?"
                args = (sweep,)
            count = cur.execute(query, args).rowcount
            if count:
                self._event(
                    cur, "requeue", sweep=sweep, detail=f"{count} task(s)"
                )
        return count

    def settled(self, sweep: str) -> bool:
        """True when no task of *sweep* is runnable or running (every
        task is done or quarantined)."""
        c = self.counts(sweep)
        return c["pending"] == 0 and c["leased"] == 0

    def result_digests(self, sweep: str) -> dict:
        """``{label: result sha256}`` for the sweep's recorded results
        (the golden-baseline unit of comparison)."""
        rows = self._conn().execute(
            "SELECT label, sha256 FROM results WHERE sweep = ?", (sweep,)
        ).fetchall()
        return dict(rows)

    def result_rows(self, sweep: str) -> list:
        """``(label, key, sha256)`` per recorded result — what the
        results DB blesses into (and diffs against) the golden
        baseline."""
        return self._conn().execute(
            "SELECT label, key, sha256 FROM results WHERE sweep = ? "
            "ORDER BY label",
            (sweep,),
        ).fetchall()

    def replay_manifest(self, sweep: str) -> dict:
        """What a remote replayer needs before fetching payloads:
        ``{"rows": [(key, sha256, traced)], "index_keys": [(idx, key)]}``
        — served by the broker HTTP server so clients can verify every
        payload against its recorded digest."""
        rows = self._conn().execute(
            "SELECT key, sha256, traced FROM results WHERE sweep = ? "
            "ORDER BY key",
            (sweep,),
        ).fetchall()
        index_keys = self._conn().execute(
            "SELECT idx, key FROM tasks WHERE sweep = ? ORDER BY idx",
            (sweep,),
        ).fetchall()
        return {
            "rows": [list(row) for row in rows],
            "index_keys": [list(row) for row in index_keys],
        }

    def result_payload(self, sweep: str, key: str) -> Optional[bytes]:
        """The verified pickled result bytes for ``(sweep, key)``, or
        ``None`` — local file first (digest-checked), shared store as
        the fallback, exactly like :meth:`replay` resolves them."""
        row = self._conn().execute(
            "SELECT file, sha256 FROM results WHERE sweep = ? AND key = ?",
            (sweep, key),
        ).fetchone()
        if row is None:
            return None
        name, digest = row
        try:
            data = (self.results_dir / name).read_bytes()
        except OSError:
            data = None
        if data is not None and hashlib.sha256(data).hexdigest() != digest:
            data = None
        if data is None:
            store = default_store()
            if store is not None:
                data = store.get_object(digest)
        return data

    def replay(self, sweep: str, traced: bool = False) -> dict:
        """``{task index: value}`` for every verified recorded result.

        A result whose file is missing, truncated, or fails its digest
        check is treated as absent (the task re-runs) rather than
        returning silently wrong bytes, and records of the other
        traced-ness are skipped.  A missing or damaged local file
        falls back to the shared artifact store (fetched by the row's
        digest, verified, and republished locally), so a second host
        can replay a sweep it never ran.
        """
        by_key = {}
        rows = self._conn().execute(
            "SELECT key, file, sha256, traced FROM results WHERE sweep = ?",
            (sweep,),
        ).fetchall()
        store = default_store()
        for key, name, digest, rec_traced in rows:
            if bool(rec_traced) != bool(traced):
                continue
            try:
                payload = (self.results_dir / name).read_bytes()
            except OSError:
                payload = None
            if payload is not None and (
                hashlib.sha256(payload).hexdigest() != digest
            ):
                payload = None
            if payload is None and store is not None:
                payload = store.get_object(digest)
                if payload is not None:
                    # Promote the fetched result next to the queue so
                    # later replays need no remote tier.
                    try:
                        atomic_publish(self.results_dir / name, payload,
                                       fsync=self.fsync)
                    except OSError:
                        pass
            if payload is None:
                continue
            try:
                by_key[key] = pickle.loads(payload)
            except Exception:
                continue
        out = {}
        for idx, key in self._conn().execute(
            "SELECT idx, key FROM tasks WHERE sweep = ?", (sweep,)
        ).fetchall():
            if key in by_key:
                out[idx] = by_key[key]
        return out

    def drop_results(self, sweep: str, traced: Optional[bool] = None) -> int:
        """Forget recorded results (and re-offer their tasks) so the
        sweep recomputes; returns how many records were dropped."""
        with self._txn() as cur:
            query = "SELECT key FROM results WHERE sweep = ?"
            args: list = [sweep]
            if traced is not None:
                query += " AND traced = ?"
                args.append(int(bool(traced)))
            keys = [row[0] for row in cur.execute(query, args).fetchall()]
            for key in keys:
                cur.execute(
                    "DELETE FROM results WHERE sweep = ? AND key = ?",
                    (sweep, key),
                )
                cur.execute(
                    "UPDATE tasks SET state = 'pending', attempts = 0, "
                    "not_before = 0 WHERE sweep = ? AND key = ?",
                    (sweep, key),
                )
        return len(keys)

    def events(self, sweep: Optional[str] = None, limit: int = 200) -> list:
        """The newest audit-trail rows, oldest first."""
        query = "SELECT ts, kind, sweep, idx, worker, detail FROM events"
        args: tuple = ()
        if sweep is not None:
            query += " WHERE sweep = ?"
            args = (sweep,)
        rows = self._conn().execute(
            query + " ORDER BY seq DESC LIMIT ?", args + (int(limit),)
        ).fetchall()
        return list(reversed(rows))

    def active_workers(self, now: Optional[float] = None) -> list:
        """Workers currently holding unexpired leases."""
        now = time.time() if now is None else now
        return [
            row[0]
            for row in self._conn().execute(
                "SELECT DISTINCT lease_owner FROM tasks "
                "WHERE state = 'leased' AND lease_deadline > ? "
                "ORDER BY lease_owner",
                (now,),
            ).fetchall()
        ]

    def checkpoint_dir(self, key: str) -> str:
        """Where the task with content key *key* checkpoints."""
        return str(self.directory / "ckpt" / key)

    def gc_checkpoints(self) -> tuple:
        """Remove ``ckpt/<key>`` dirs whose tasks all reached ``done``.

        Checkpoints exist to resume interrupted work; once every task
        row sharing a key is done, its directory is dead weight (it
        used to accumulate forever).  Returns ``(dirs removed, bytes
        freed)``.  Directories whose key is still pending, leased, or
        quarantined — or not in the queue at all (another queue's keys,
        a mid-write claim) — are left alone.
        """
        root = self.directory / "ckpt"
        if not root.is_dir():
            return 0, 0
        states = {}
        for key, state in self._conn().execute(
            "SELECT key, state FROM tasks"
        ).fetchall():
            states.setdefault(key, set()).add(state)
        removed = 0
        freed = 0
        for entry in sorted(root.iterdir()):
            if not entry.is_dir() or states.get(entry.name) != {"done"}:
                continue
            size = 0
            try:
                for path in sorted(entry.rglob("*"), reverse=True):
                    if path.is_file():
                        size += path.stat().st_size
                        path.unlink()
                    elif path.is_dir():
                        path.rmdir()
                entry.rmdir()
            except OSError:
                continue
            removed += 1
            freed += size
        if removed:
            with self._txn() as cur:
                self._event(
                    cur, "gc", detail=f"{removed} checkpoint dir(s), "
                    f"{freed} bytes",
                )
        return removed, freed

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None


# -- transport resolution ----------------------------------------------------


def connect(
    target,
    lease_ttl: Optional[float] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backoff_base: Optional[float] = None,
    fsync: bool = True,
):
    """The broker transport for *target*: an ``http(s)://`` URL returns
    an :class:`~repro.experiments.broker_net.HTTPBroker` client, any
    other string or path opens the filesystem :class:`Broker` directly.

    Both transports expose the same claim/lease surface, so callers —
    :func:`worker_loop`, the harness's broker backend, the CLI verbs —
    never branch on which one they got.
    """
    if isinstance(target, str) and target.startswith(
        ("http://", "https://")
    ):
        from repro.experiments.broker_net import HTTPBroker

        return HTTPBroker(
            target,
            lease_ttl=lease_ttl,
            max_attempts=max_attempts,
            backoff_base=backoff_base,
        )
    return Broker(
        target,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
        backoff_base=backoff_base,
        fsync=fsync,
    )


# -- worker loop ------------------------------------------------------------


class _Heartbeat(threading.Thread):
    """Renews one lease until stopped; optionally enforces a per-task
    wall budget by SIGKILLing its own process (the lease then expires
    and the task is re-offered elsewhere — the broker-backend analogue
    of the pool path's straggler SIGKILL)."""

    def __init__(self, broker, lease, task_timeout, timeout_kills):
        super().__init__(daemon=True)
        self.broker = broker
        self.lease = lease
        self.task_timeout = task_timeout
        self.timeout_kills = timeout_kills
        self.started_at = time.monotonic()
        self.lost = False
        self.timed_out = False
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self.broker.lease_ttl)

    def run(self) -> None:
        interval = self.broker.lease_ttl / 3.0
        while not self._halt.wait(interval):
            if (
                self.task_timeout is not None
                and time.monotonic() - self.started_at >= self.task_timeout
            ):
                self.timed_out = True
                if self.timeout_kills:
                    os.kill(os.getpid(), signal.SIGKILL)
                return  # stop renewing; the lease expires and reclaims
            try:
                self.broker.heartbeat(self.lease)
            except LeaseLostError:
                self.lost = True
                return
            except Exception:
                # A transient DB hiccup: keep trying while the lease
                # may still be alive.
                continue


def worker_loop(
    directory,
    worker: Optional[str] = None,
    lease_ttl: Optional[float] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backoff_base: Optional[float] = None,
    task_timeout: Optional[float] = None,
    timeout_kills: bool = False,
    poll_interval: float = 0.2,
    drain: bool = True,
    max_tasks: Optional[int] = None,
    log: Optional[Callable] = None,
    down_grace: Optional[float] = None,
) -> int:
    """Claim and run tasks from the broker at *directory* (a path or an
    ``http(s)://`` broker-server URL).

    The core of the ``work`` CLI verb and of the local workers the
    harness's broker backend spawns.  Each claimed task runs under a
    heartbeat thread renewing the lease at a third of its TTL and with
    its checkpoint directory exported; an exception inside the point
    function reports :meth:`Broker.fail` (backed-off re-offer, then
    quarantine) instead of killing the loop.

    Over the HTTP transport the loop degrades instead of crashing: an
    unreachable server is polled (cheaply — the transport's breaker
    answers without touching the network inside its cooldown) until it
    returns or *down_grace* (``REPRO_BROKER_GRACE``, 60 s) of
    continuous unavailability passes while draining; a completion the
    server never acknowledged is simply recomputed by a later claim
    and deduped by content key.

    Args:
        worker: worker identity for leases (host:pid by default).
        task_timeout: per-task wall budget; with *timeout_kills* the
            worker SIGKILLs itself when exceeded (subprocess workers
            only!), otherwise it just stops heartbeating so the task is
            reclaimed while the local attempt burns out.
        drain: return once no task is runnable or running anywhere in
            the queue; ``False`` keeps serving until interrupted.
        max_tasks: stop after this many completed claims (tests).
        down_grace: seconds of continuous broker unavailability a
            draining worker tolerates before giving up.

    Returns:
        the number of tasks this worker completed.
    """
    down_grace = resolve_down_grace(down_grace)
    worker = worker or default_worker_id()
    started = time.monotonic()
    while True:
        # A worker may legitimately start before its broker server is
        # up (CI launches both at once): keep trying to connect for the
        # grace window instead of crashing on the first refused socket.
        try:
            broker = connect(
                directory,
                lease_ttl=lease_ttl,
                max_attempts=max_attempts,
                backoff_base=backoff_base,
            )
            break
        except BrokerUnavailableError as exc:
            if time.monotonic() - started > down_grace:
                raise
            if log is not None:
                log(f"worker {worker}: {exc}; waiting for broker")
            time.sleep(poll_interval)
    # Warm the pipeline cache from the shared store (when configured)
    # before claiming anything: a sweep point then reuses the fleet's
    # static-pipeline products instead of recomputing them per worker.
    from repro.tuning.pipeline import default_cache

    prefetched = default_cache().warm_from_store()
    if prefetched and log is not None:
        log(f"worker {worker}: prefetched {prefetched} pipeline "
            f"entries from the store")
    rec = current_recorder()
    completed = 0
    task_run = None
    down_since = None
    traced_cache: dict = {}
    while True:
        if max_tasks is not None and completed >= max_tasks:
            return completed
        try:
            lease = broker.claim(worker)
        except BrokerUnavailableError as exc:
            # Hard-down server: keep polling (the breaker makes each
            # poll an instant no-network raise) until it returns or the
            # grace window closes.  Never a hung worker, never a crash.
            now = time.monotonic()
            if down_since is None:
                down_since = now
                if log is not None:
                    log(f"worker {worker}: {exc}; polling")
            if drain and now - down_since > down_grace:
                if log is not None:
                    log(
                        f"worker {worker}: broker still unreachable "
                        f"after {down_grace:g}s; giving up"
                    )
                return completed
            time.sleep(poll_interval)
            continue
        down_since = None
        if lease is None:
            try:
                counts = broker.counts()
            except BrokerUnavailableError:
                time.sleep(poll_interval)
                continue
            if counts["pending"] == 0 and counts["leased"] == 0:
                if drain:
                    return completed
            time.sleep(poll_interval)
            continue
        if log is not None:
            log(
                f"worker {worker}: claimed {lease.label} "
                f"(attempt {lease.attempt})"
            )
        heartbeat = _Heartbeat(broker, lease, task_timeout, timeout_kills)
        heartbeat.start()
        started = time.perf_counter()
        try:
            fn, task = lease.load()
            # The content key doubles as the snapshot's store ref, so a
            # reclaimed task resumes from the fleet's last published
            # checkpoint even on a host with an empty ckpt/ directory.
            with task_checkpoint_dir(broker.checkpoint_dir(lease.key),
                                     ref=lease.key):
                value = fn(task)
        except BaseException as exc:
            heartbeat.stop()
            try:
                state = broker.fail(lease, exc)
            except BrokerUnavailableError:
                # The lease lapses on its own and the task is
                # re-offered; losing the failure report costs nothing.
                state = "unreported"
            if log is not None:
                log(f"worker {worker}: {lease.label} failed ({exc!r}) -> {state}")
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            continue
        heartbeat.stop()
        try:
            if lease.sweep not in traced_cache:
                traced_cache[lease.sweep] = broker.sweep_traced(lease.sweep)
            recorded = broker.complete(
                lease, value, traced=traced_cache[lease.sweep]
            )
        except BrokerUnavailableError as exc:
            # The completion was computed but could not be recorded
            # past the transport's retries.  Safe to drop: the lease
            # lapses, the task is re-offered, and the recomputed result
            # dedupes by content key.
            if log is not None:
                log(
                    f"worker {worker}: could not record {lease.label} "
                    f"({exc}); it will be recomputed"
                )
            continue
        completed += 1
        if rec.enabled and rec.wants("task"):
            if task_run is None:
                task_run = rec.begin_run(f"broker-worker:{worker}", clock="wall")
            rec.span(
                "task", lease.label, started,
                time.perf_counter() - started, run=task_run,
            )
        if log is not None:
            log(
                f"worker {worker}: {lease.label} "
                f"{'recorded' if recorded else 'deduped'}"
            )
