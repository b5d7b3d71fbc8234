"""Crash-safe checkpointing of live simulations.

A checkpoint is a single file holding one pickled
:meth:`Simulation.snapshot_state` payload behind a small integrity
envelope::

    REPROCKPT1\\n          magic (format identifier)
    <4-byte big-endian>   header length
    <JSON header>         {"length", "sha256", "sim_time", "version"}
    <pickle payload>      the snapshot dict

Files are written to a temporary name in the target directory and
published with :func:`os.replace` after an ``fsync``, so a reader never
observes a half-written checkpoint under the final name.  On load the
magic, payload length, and SHA-256 digest are all verified; any
mismatch (truncation, bit flip, torn write) raises
:class:`~repro.errors.CheckpointError` rather than silently restoring
wrong state.

:class:`CheckpointManager` layers policy on top: it owns a directory of
``ckpt-NNNNNNNN.ckpt`` files, decides *when* a snapshot is due on an
absolute ``k * interval`` sim-time grid (so a resumed run checkpoints
at the same sim times as an uninterrupted one), retains the newest
``keep`` files, and on restore walks newest-to-oldest past corrupt
files to the most recent valid snapshot.  The executor's macro-quantum
coalescing respects the grid: a window never opens across the next due
grid point (``_coalesce_horizon`` caps windows at ``ckpt_due``), so
snapshots always land between events exactly where the per-quantum
loop would have taken them, and a resumed coalesced run stays
bit-identical to an uninterrupted one.

The module is deliberately ignorant of :class:`Simulation` internals —
it duck-types ``sim.snapshot_state()`` — so it can be imported from the
harness and the CLI without touching the executor.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pickle
import re
from pathlib import Path
from typing import Optional

from repro.errors import CheckpointError, StoreError

__all__ = [
    "CHECKPOINT_INTERVAL_ENV",
    "CHECKPOINT_VERSION",
    "CheckpointManager",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "TASK_CHECKPOINT_DIR_ENV",
    "TASK_CHECKPOINT_REF_ENV",
    "build_checkpoint_bytes",
    "load_checkpoint",
    "parse_checkpoint",
    "save_checkpoint",
    "task_checkpoint_dir",
    "task_checkpoint_manager",
]

MAGIC = b"REPROCKPT1\n"
CHECKPOINT_VERSION = 1
DEFAULT_CHECKPOINT_INTERVAL = 10.0

#: Environment variables through which broker workers hand each task
#: its checkpoint directory and cadence (see ``broker.worker_loop`` and
#: ``runner.run_technique_point``).
TASK_CHECKPOINT_DIR_ENV = "REPRO_TASK_CHECKPOINT_DIR"
CHECKPOINT_INTERVAL_ENV = "REPRO_CHECKPOINT_INTERVAL"

#: Stable content name for the running task's snapshots in the shared
#: artifact store (the broker exports its task content key here).  When
#: set, :func:`task_checkpoint_manager` also publishes snapshots under
#: ``ckpt/<name>`` refs and can resume from a snapshot another host
#: published — a reclaimed task continues mid-simulation even on a
#: machine whose local checkpoint directory is empty.
TASK_CHECKPOINT_REF_ENV = "REPRO_TASK_CHECKPOINT_REF"

_FILE_RE = re.compile(r"^ckpt-(\d{8})\.ckpt$")


def build_checkpoint_bytes(state: dict) -> bytes:
    """The full checkpoint envelope (magic + header + payload) for
    *state* — what :func:`save_checkpoint` writes and the shared store
    publishes."""
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "length": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "sim_time": state.get("now"),
            "version": CHECKPOINT_VERSION,
        },
        sort_keys=True,
    ).encode("ascii")
    return MAGIC + len(header).to_bytes(4, "big") + header + payload


def _write_envelope(envelope: bytes, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(envelope)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def save_checkpoint(state: dict, path) -> Path:
    """Atomically write *state* (a snapshot dict) to *path*.

    The file appears under its final name only after the payload has
    been fully written and fsynced, so a crash mid-save leaves at worst
    a stale ``*.tmp`` file behind, never a truncated checkpoint.
    """
    return _write_envelope(build_checkpoint_bytes(state), path)


def parse_checkpoint(raw: bytes, label: str = "<bytes>") -> dict:
    """Verify a checkpoint envelope and return the snapshot dict.

    *label* names the source in error messages (a path for files, a
    ref for store fetches).

    Raises:
        CheckpointError: wrong magic or format version, truncation, a
            payload whose SHA-256 digest does not match the header, or
            a payload that does not unpickle to a snapshot dict.
    """
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{label}: not a repro checkpoint (bad magic)")
    body = raw[len(MAGIC):]
    if len(body) < 4:
        raise CheckpointError(f"{label}: truncated checkpoint (no header)")
    header_len = int.from_bytes(body[:4], "big")
    header_raw = body[4:4 + header_len]
    if len(header_raw) < header_len:
        raise CheckpointError(f"{label}: truncated checkpoint (short header)")
    try:
        header = json.loads(header_raw.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(f"{label}: corrupt checkpoint header") from exc
    if not isinstance(header, dict) or header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{label}: unsupported checkpoint version "
            f"{header.get('version') if isinstance(header, dict) else header!r}"
        )
    payload = body[4 + header_len:]
    if len(payload) != header.get("length"):
        raise CheckpointError(
            f"{label}: truncated checkpoint "
            f"({len(payload)} of {header.get('length')} payload bytes)"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise CheckpointError(
            f"{label}: checkpoint digest mismatch (corrupt payload)"
        )
    try:
        state = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"{label}: checkpoint payload does not unpickle: {exc}"
        ) from exc
    if not isinstance(state, dict):
        raise CheckpointError(
            f"{label}: checkpoint payload is not a snapshot dict"
        )
    return state


def load_checkpoint(path) -> dict:
    """Read and verify a checkpoint file, returning the snapshot dict.

    Raises:
        CheckpointError: if the file is unreadable, has the wrong
            magic or format version, is truncated, or the payload's
            SHA-256 digest does not match the header.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return parse_checkpoint(raw, label=str(path))


class CheckpointManager:
    """Owns one directory of numbered checkpoints for one simulation run.

    Args:
        directory: where ``ckpt-NNNNNNNN.ckpt`` files live (created on
            demand).
        interval: simulated seconds between snapshots.  Due times sit
            on the absolute ``k * interval`` grid, so a run resumed at
            ``t=12.3`` with ``interval=5`` checkpoints next at 15.0 —
            exactly where the uninterrupted run would have.
        keep: how many of the newest checkpoints to retain.  At least
            two, so a checkpoint corrupted on disk still leaves a valid
            predecessor to fall back to.
        store: optional shared artifact store
            (:class:`repro.store.TieredStore`).  With *ref* set, every
            snapshot is also published there (newest wins) and
            :meth:`latest_state` falls back to the store when no valid
            local file exists — so a task reclaimed onto another host
            resumes mid-simulation.  Always best-effort: a dead store
            never fails a save or a resume.
        ref: the store ref name snapshots publish under.
    """

    def __init__(self, directory, interval: float = DEFAULT_CHECKPOINT_INTERVAL,
                 keep: int = 2, store=None, ref: Optional[str] = None):
        if not (interval > 0 and math.isfinite(interval)):
            raise CheckpointError(
                f"checkpoint interval must be positive and finite, got {interval}"
            )
        if keep < 2:
            raise CheckpointError(f"keep must be at least 2, got {keep}")
        self.directory = Path(directory)
        self.interval = float(interval)
        self.keep = int(keep)
        self.store = store if ref else None
        self.ref = ref
        self.saves = 0
        #: Corrupt files skipped while looking for the latest valid
        #: snapshot (surfaced so callers can log the fallback).
        self.corrupt_skipped = 0
        #: Whether the last :meth:`latest_state` came from the shared
        #: store rather than a local file.
        self.resumed_from_store = False
        self.next_due = self.interval
        existing = self.checkpoint_files()
        self._seq = (
            int(_FILE_RE.match(existing[-1].name).group(1)) + 1 if existing else 0
        )

    def checkpoint_files(self) -> list:
        """All well-named checkpoint files, oldest first."""
        if not self.directory.is_dir():
            return []
        return sorted(
            entry for entry in self.directory.iterdir()
            if _FILE_RE.match(entry.name)
        )

    def first_due(self, now: float) -> float:
        """The first grid point strictly after *now*."""
        return (math.floor(now / self.interval) + 1) * self.interval

    def save(self, sim, at: Optional[float] = None) -> Path:
        """Snapshot *sim* into the next numbered file and prune old ones.

        *at* is the sim time that triggered the save (the next event's
        timestamp); ``next_due`` advances to the first grid point after
        it so a burst of overdue events produces one snapshot, not one
        per event.
        """
        state = sim.snapshot_state()
        path = self.directory / f"ckpt-{self._seq:08d}.ckpt"
        envelope = build_checkpoint_bytes(state)
        _write_envelope(envelope, path)
        if self.store is not None:
            try:
                self.store.publish(self.ref, envelope)
            except (OSError, StoreError):
                pass
        self._seq += 1
        self.saves += 1
        base = state.get("now", 0.0) if at is None else at
        self.next_due = self.first_due(base)
        self._prune()
        return path

    def latest_state(self) -> Optional[dict]:
        """The newest snapshot that passes verification, or ``None``.

        Corrupt files are skipped (counted in ``corrupt_skipped``), so
        a damaged newest checkpoint falls back to its predecessor and a
        fully corrupt directory falls back to a clean start — never to
        silently wrong state.  With a store ref configured, an empty or
        fully corrupt directory additionally falls back to the snapshot
        the fleet last published (digest-verified by the store, then
        re-verified here), promoting it into the directory on success.
        """
        self.resumed_from_store = False
        for path in reversed(self.checkpoint_files()):
            try:
                return load_checkpoint(path)
            except CheckpointError:
                self.corrupt_skipped += 1
        if self.store is not None:
            try:
                envelope = self.store.fetch(self.ref)
            except StoreError:
                envelope = None
            if envelope is not None:
                try:
                    state = parse_checkpoint(envelope, label=f"ref {self.ref}")
                except CheckpointError:
                    self.corrupt_skipped += 1
                    return None
                try:
                    _write_envelope(
                        envelope,
                        self.directory / f"ckpt-{self._seq:08d}.ckpt",
                    )
                    self._seq += 1
                except OSError:
                    pass
                self.resumed_from_store = True
                return state
        return None

    def _prune(self) -> None:
        for stale in self.checkpoint_files()[:-self.keep]:
            try:
                stale.unlink()
            except OSError:
                pass


@contextlib.contextmanager
def task_checkpoint_dir(directory, ref: Optional[str] = None):
    """Export *directory* as the running task's checkpoint directory.

    While the context is active :data:`TASK_CHECKPOINT_DIR_ENV` points
    at *directory*, so checkpoint-aware point functions (which call
    :func:`task_checkpoint_manager`) save there — and resume from there
    when it already holds a valid snapshot.  *ref* additionally exports
    :data:`TASK_CHECKPOINT_REF_ENV` — a stable content name (the
    broker's task key) under which snapshots are shared through the
    artifact store.  The previous values are restored on exit, so
    nested scopes unwind cleanly.  The broker worker loop and the
    harness's in-parent rescue of quarantined broker tasks wrap each
    task in this scope.
    """
    previous = os.environ.get(TASK_CHECKPOINT_DIR_ENV)
    previous_ref = os.environ.get(TASK_CHECKPOINT_REF_ENV)
    os.environ[TASK_CHECKPOINT_DIR_ENV] = str(directory)
    if ref is not None:
        os.environ[TASK_CHECKPOINT_REF_ENV] = str(ref)
    else:
        os.environ.pop(TASK_CHECKPOINT_REF_ENV, None)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(TASK_CHECKPOINT_DIR_ENV, None)
        else:
            os.environ[TASK_CHECKPOINT_DIR_ENV] = previous
        if previous_ref is None:
            os.environ.pop(TASK_CHECKPOINT_REF_ENV, None)
        else:
            os.environ[TASK_CHECKPOINT_REF_ENV] = previous_ref


def task_checkpoint_manager(
    subdir: Optional[str] = None,
) -> Optional[CheckpointManager]:
    """The manager a harness task should checkpoint through, if any.

    A broker-backed sweep points :data:`TASK_CHECKPOINT_DIR_ENV` at a
    per-task directory while the task runs; checkpoint-aware point
    functions call this to pick the manager up.  Returns ``None`` when
    the task is not running under a broker.

    Args:
        subdir: optional subdirectory under the task's checkpoint
            directory.  A point function running *several* simulations
            must give each its own subdir — sharing one directory would
            make the second simulation "resume" from the first's
            snapshot.
    """
    directory = os.environ.get(TASK_CHECKPOINT_DIR_ENV)
    if not directory:
        return None
    if subdir:
        directory = os.path.join(directory, subdir)
    interval = DEFAULT_CHECKPOINT_INTERVAL
    raw = os.environ.get(CHECKPOINT_INTERVAL_ENV, "").strip()
    if raw:
        try:
            interval = float(raw)
        except ValueError as exc:
            raise CheckpointError(
                f"{CHECKPOINT_INTERVAL_ENV}={raw!r} is not a number"
            ) from exc
    store = None
    ref = None
    name = os.environ.get(TASK_CHECKPOINT_REF_ENV, "").strip()
    if name:
        from repro.store import default_store

        store = default_store()
        if store is not None:
            ref = f"ckpt/{name}" + (f"/{subdir}" if subdir else "")
    return CheckpointManager(directory, interval=interval, store=store,
                             ref=ref)
