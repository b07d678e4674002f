"""Crash-consistent checkpoint/resume for ANEK-INFER runs.

A *run directory* makes an inference run durable: ``meta.json``
identifies what is running (program digest, config digest, schedule
kind), ``journal.bin`` (:mod:`repro.resilience.journal`) records every
run-layer event, and ``snapshot-NNNNNN.bin`` files hold compacted
images of the worklist state — the summary store, accumulated boundary
marginals, stats, the failure ledger, the quarantine set, and the
engine's position (worklist contents for the sequential engine,
``(round, level)`` plus the dirty sets for the level-synchronous
scheduler).  Snapshots are written atomically (mkstemp + ``os.replace``,
the :mod:`repro.cache.store` idiom) and checksummed, so a ``SIGKILL`` at
any byte leaves either the previous snapshot or the new one — never a
torn state.

**Bit-identity.**  Both engines are deterministic functions of the state
captured at a barrier: the sequential worklist of the exact pending
visits, the scheduler of the ``(round, level)`` position plus its dirty
sets (PR 1's executor-independence guarantee), and model rebuilds are
bit-identical to refreshes (PR 2).  Resuming from any barrier therefore
re-executes the lost suffix exactly as the uninterrupted run would have,
so the final marginals — and every Table downstream — agree
bit-for-bit.  Barriers sit *between* units of work (after a worklist
visit's enqueues, after a scheduler level's merge), exactly the
granularity at which PR 3's replay trajectory is defined.

The run layer also owns two operational policies:

* **graceful shutdown** — :func:`graceful_shutdown` installs
  SIGTERM/SIGINT handlers that set an event; the next barrier drains
  nothing (in-flight work already completed), writes a final snapshot,
  and raises :class:`RunInterrupted`, which the CLI maps to the
  resumable exit code.  A second signal aborts immediately.
* **resource governance** — a soft RSS budget
  (``InferenceSettings.max_rss_mb``, which needs a run directory) read
  at barriers; a reading over it stops the run exactly like a shutdown
  signal: checkpoint, then :class:`RunInterrupted` (exit 5), so no unit
  of work starts after a barrier that found the process over budget.
  ``ENOSPC`` or any other ``OSError`` from the journal/snapshot path
  disables persistence for the rest of the run instead of crashing it.
"""

import json
import os
import pickle
import signal
import struct
import tempfile
import threading
import warnings
import zlib
from dataclasses import asdict
from contextlib import contextmanager

from repro.resilience.faults import maybe_fault
from repro.resilience.journal import Journal, read_journal
from repro.resilience.report import FailureRecord

#: Version tag of the run-directory layout.
RUN_FORMAT = "anek-run-v1"

#: Leading magic of snapshot files (followed by u32 CRC-32 + pickle).
SNAP_MAGIC = b"ANEKSNP1"

META_NAME = "meta.json"
JOURNAL_NAME = "journal.bin"

#: Snapshots kept on disk: the newest plus one predecessor, so a crash
#: *during* compaction still finds a complete image.
KEEP_SNAPSHOTS = 2


class RunInterrupted(Exception):
    """A graceful shutdown or the RSS budget stopped the run at a
    checkpoint barrier.

    Carries the run directory (to print the resume command) and the
    failure ledger as it stood at the interrupt.
    """

    def __init__(self, run_dir, failures=None):
        self.run_dir = run_dir
        self.failures = failures
        super().__init__(
            "run interrupted; resume with --resume %s" % run_dir
        )


class ResumeError(Exception):
    """The run directory cannot seed this run (missing or mismatched)."""


# ---------------------------------------------------------------------------
# Graceful-shutdown machinery
# ---------------------------------------------------------------------------

_SHUTDOWN = threading.Event()


def shutdown_requested():
    """True once SIGTERM/SIGINT (or :func:`request_shutdown`) arrived."""
    return _SHUTDOWN.is_set()


def request_shutdown():
    """Programmatic shutdown request (tests, embedding applications)."""
    _SHUTDOWN.set()


def clear_shutdown():
    _SHUTDOWN.clear()


@contextmanager
def graceful_shutdown():
    """Install SIGTERM/SIGINT → drain-and-checkpoint for the duration.

    The first signal sets the shutdown event — the run finishes its
    in-flight unit of work and stops at the next checkpoint barrier with
    a final snapshot.  A second signal raises ``KeyboardInterrupt``
    immediately (the escape hatch from a stuck drain).  Outside the main
    thread (or on platforms without signals) this is a no-op context.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def handler(signum, frame):
        if _SHUTDOWN.is_set():
            raise KeyboardInterrupt
        _SHUTDOWN.set()

    previous = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, handler)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    try:
        yield
    finally:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):  # pragma: no cover
                pass
        _SHUTDOWN.clear()


# ---------------------------------------------------------------------------
# Resource probes
# ---------------------------------------------------------------------------


def current_rss_mb():
    """This process's resident set size in MiB (0.0 when unknowable)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    try:  # pragma: no cover - non-/proc platforms
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:  # pragma: no cover
        return 0.0
    return 0.0  # pragma: no cover


# ---------------------------------------------------------------------------
# Snapshot files
# ---------------------------------------------------------------------------


def _atomic_write(path, data):
    """mkstemp + fsync + ``os.replace``: a reader (or a resume after a
    kill) sees the old content or the new — never a torn file."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.remove(temp_path)
        except OSError:
            pass
        raise


def write_snapshot(path, state):
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    _atomic_write(
        path, SNAP_MAGIC + struct.pack("<I", zlib.crc32(payload)) + payload
    )


def read_snapshot(path):
    """Load one snapshot; raises ``ValueError`` on any corruption."""
    with open(path, "rb") as handle:
        data = handle.read()
    if not data.startswith(SNAP_MAGIC) or len(data) < len(SNAP_MAGIC) + 4:
        raise ValueError("not a snapshot file: %s" % path)
    (crc,) = struct.unpack(
        "<I", data[len(SNAP_MAGIC) : len(SNAP_MAGIC) + 4]
    )
    payload = data[len(SNAP_MAGIC) + 4 :]
    if zlib.crc32(payload) != crc:
        raise ValueError("snapshot checksum mismatch: %s" % path)
    return pickle.loads(payload)


def _snapshot_files(run_dir):
    """Snapshot filenames, newest first."""
    try:
        names = os.listdir(run_dir)
    except OSError:
        return []
    return sorted(
        (
            name
            for name in names
            if name.startswith("snapshot-") and name.endswith(".bin")
        ),
        reverse=True,
    )


def latest_valid_snapshot(run_dir):
    """(filename, state) of the newest readable snapshot, or (None, None).

    Corrupt or truncated snapshots are skipped, so recovery always lands
    on the last *valid* image — the journal-fuzz guarantee.
    """
    for name in _snapshot_files(run_dir):
        try:
            return name, read_snapshot(os.path.join(run_dir, name))
        except Exception:
            continue
    return None, None


def _snapshot_index(name):
    try:
        return int(name[len("snapshot-") : -len(".bin")])
    except ValueError:  # pragma: no cover - foreign files
        return 0


# ---------------------------------------------------------------------------
# The checkpoint manager
# ---------------------------------------------------------------------------


class CheckpointManager:
    """Owns one run directory for one :class:`AnekInference` run.

    Built via :meth:`start` (fresh run) or :meth:`resume` (continue an
    interrupted one); the engines call :meth:`barrier` between units of
    work and :meth:`finalize` after persisting final results.
    """

    def __init__(self, run_dir, inference):
        self.run_dir = run_dir
        self.inference = inference
        self.settings = inference.settings
        self.table = inference.program.method_key_table()
        self.key_of = {ref: key for key, ref in self.table.items()}
        self.journal = None
        #: Decoded state of the newest valid snapshot (resume only).
        self.resume_state = None
        self.barrier_index = 0
        self.snapshot_index = 0
        #: True once an OSError (ENOSPC, yanked volume) disabled
        #: journal/snapshot persistence for the rest of the run.
        self.disabled = False

    # -- identity ---------------------------------------------------------------

    def _meta(self):
        """The run's identity: what a resume must match.  The engine and
        the threshold are not part of it (see ``config_digest``), so a
        run resumes bit-identically on either engine, at any threshold."""
        from repro.cache.fingerprints import config_digest, program_digest

        inference = self.inference
        return {
            "format": RUN_FORMAT,
            "program": program_digest(inference.program),
            "config": config_digest(inference.config, self.settings),
            "schedule": inference._schedule_kind(),
        }

    # -- construction -----------------------------------------------------------

    @classmethod
    def start(cls, run_dir, inference):
        """Open a fresh run directory (reusing it wipes stale state)."""
        manager = cls(run_dir, inference)
        try:
            os.makedirs(run_dir, exist_ok=True)
            for name in _snapshot_files(run_dir):
                try:
                    os.remove(os.path.join(run_dir, name))
                except OSError:
                    pass
            _atomic_write(
                os.path.join(run_dir, META_NAME),
                (json.dumps(manager._meta(), indent=2, sort_keys=True) + "\n")
                .encode("utf-8"),
            )
            manager.journal = Journal.create(
                os.path.join(run_dir, JOURNAL_NAME)
            )
        except OSError as exc:
            manager._disable("start", exc)
            return manager
        manager._append("begin", {"schedule": manager._meta()["schedule"]})
        return manager

    @classmethod
    def resume(cls, run_dir, inference):
        """Continue an interrupted run from its directory.

        Validates ``meta.json`` against the *current* program/config
        (resuming under different inputs would silently change results —
        :class:`ResumeError` instead), repairs the journal's torn tail,
        and loads the newest valid snapshot.  A directory with no valid
        snapshot (killed before the first barrier) resumes as a fresh
        run — re-executing from the start *is* the correct recovery.
        """
        manager = cls(run_dir, inference)
        meta_path = os.path.join(run_dir, META_NAME)
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
        except FileNotFoundError:
            raise ResumeError(
                "%s is not a run directory (no %s)" % (run_dir, META_NAME)
            )
        except (OSError, ValueError) as exc:
            raise ResumeError(
                "unreadable run metadata %s (%s: %s)"
                % (meta_path, type(exc).__name__, exc)
            )
        expected = manager._meta()
        for field in ("format", "program", "config", "schedule"):
            if stored.get(field) != expected[field]:
                raise ResumeError(
                    "run directory %s was recorded with a different %s "
                    "(stored %r, current %r); a resume must replay the "
                    "same program, config, and schedule"
                    % (run_dir, field, stored.get(field), expected[field])
                )
        journal_path = os.path.join(run_dir, JOURNAL_NAME)
        records, valid_bytes, total_bytes = read_journal(journal_path)
        name, state = latest_valid_snapshot(run_dir)
        manager.resume_state = state
        if state is not None:
            manager.barrier_index = state.get("barrier_index", 0)
        if name is not None:
            manager.snapshot_index = _snapshot_index(name)
        inference.failures.resumed_from = run_dir
        try:
            if os.path.exists(journal_path):
                manager.journal = Journal.append_to(
                    journal_path, valid_bytes, index=len(records)
                )
            else:
                manager.journal = Journal.create(journal_path)
        except OSError as exc:
            manager._disable("resume", exc)
            return manager
        manager._append(
            "resume",
            {
                "snapshot": name,
                "barrier": manager.barrier_index,
                "journal_records": len(records),
                "truncated_bytes": total_bytes - valid_bytes,
            },
        )
        return manager

    # -- degradation ------------------------------------------------------------

    def _disable(self, what, exc):
        """ENOSPC (or any persistence OSError): keep computing, stop
        persisting — the inverse of crashing a healthy analysis over a
        full disk."""
        self.disabled = True
        self.inference.stats.persist_errors += 1
        self.inference.failures.add(
            FailureRecord(
                stage="checkpoint",
                key=what,
                error=type(exc).__name__,
                message="run persistence disabled (%s); continuing without "
                "checkpoints" % exc,
                disposition="persistence-disabled",
            )
        )
        warnings.warn(
            "run directory %s is not writable (%s: %s); continuing without "
            "checkpoints" % (self.run_dir, type(exc).__name__, exc),
            RuntimeWarning,
            stacklevel=3,
        )

    def _append(self, kind, data):
        if self.disabled or self.journal is None:
            return
        try:
            self.journal.append(kind, data)
        except OSError as exc:
            self._disable("journal", exc)

    # -- snapshots --------------------------------------------------------------

    def _snapshot(self, state, reason):
        if self.disabled:
            return
        self.snapshot_index += 1
        name = "snapshot-%06d.bin" % self.snapshot_index
        state = dict(state)
        state["barrier_index"] = self.barrier_index
        try:
            write_snapshot(os.path.join(self.run_dir, name), state)
        except OSError as exc:
            self._disable("snapshot", exc)
            return
        self.inference.stats.checkpoints += 1
        self._append(
            "snapshot",
            {"file": name, "barrier": self.barrier_index, "reason": reason},
        )
        for old in _snapshot_files(self.run_dir):
            if _snapshot_index(old) <= self.snapshot_index - KEEP_SNAPSHOTS:
                try:
                    os.remove(os.path.join(self.run_dir, old))
                except OSError:
                    pass

    # -- state encoding ---------------------------------------------------------

    def encode(self, results, extra=None, complete=False):
        """The run's durable state as plain picklable data.

        MethodRefs become stable string keys and marginals plain dict
        payloads, so a snapshot written by one process re-attaches to
        another's ASTs.  Evidence site keys are canonicalized
        (:func:`canonical_site_key`); the decode side converts them back
        to refs.
        """
        from repro.cache.fingerprints import canonical_site_key

        inference = self.inference
        key_of = self.key_of
        store_payload = inference.summaries.to_payload(key_of)
        store_payload["evidence"] = [
            (
                header,
                [
                    (canonical_site_key(site_key, key_of), part)
                    for site_key, part in bucket
                ],
            )
            for header, bucket in store_payload["evidence"]
        ]
        return {
            "complete": complete,
            "engine": inference._schedule_kind(),
            "store": store_payload,
            "results": [
                (
                    key_of[ref],
                    [
                        (slot_target, marginal.to_payload())
                        for slot_target, marginal in boundary.items()
                    ],
                )
                for ref, boundary in results.items()
                if ref in key_of
            ],
            "stats": asdict(inference.stats),
            "failures": [asdict(r) for r in inference.failures.records],
            "quarantined": [
                (key_of[ref], asdict(record))
                for ref, record in inference.quarantined.items()
                if ref in key_of
            ],
            "extra": extra or {},
        }

    # -- the barrier ------------------------------------------------------------

    def barrier(self, tag, state_fn):
        """One checkpoint barrier, called between units of work.

        ``state_fn`` is a zero-argument callable producing the
        :meth:`encode`\\ d state — invoked only when a snapshot is
        actually due, so barriers that merely journal stay cheap.  In
        order: the chaos fault site, the journal record, the stop check
        (RSS over ``max_rss_mb``, or a shutdown request: final snapshot
        + :class:`RunInterrupted`), and the periodic snapshot cadence.
        """
        self.barrier_index += 1
        maybe_fault("checkpoint", tag)
        self._append("barrier", {"index": self.barrier_index, "tag": tag})
        budget = self.settings.max_rss_mb
        rss = current_rss_mb() if budget else 0.0
        if budget and rss > budget:
            self._stop(tag, state_fn, "resource", "SoftMemoryBudget",
                       "RSS %.0f MiB over the %d MiB budget" % (rss, budget),
                       reason="memory")
        if shutdown_requested():
            self._stop(tag, state_fn, "checkpoint", "Interrupted",
                       "graceful shutdown", reason="interrupt")
        if self.barrier_index % max(self.settings.checkpoint_every, 1) == 0:
            self._snapshot(state_fn(), reason="periodic")

    def _stop(self, tag, state_fn, stage, error, why, reason):
        """Stop the run at this barrier: ledger a ``run-interrupted``
        record, write a snapshot journaled with ``reason``, and raise
        :class:`RunInterrupted`."""
        inference = self.inference
        # Record the interrupt *before* snapshotting so the ledger entry
        # survives into the resumed run (ledger contiguity).
        inference.stats.interrupted = True
        inference.failures.interrupted = True
        inference.failures.add(
            FailureRecord(
                stage=stage,
                key=tag,
                error=error,
                message="%s: resumable checkpoint written to %s"
                % (why, self.run_dir),
                disposition="run-interrupted",
            )
        )
        self._snapshot(state_fn(), reason=reason)
        self._append("interrupt", {"tag": tag})
        raise RunInterrupted(self.run_dir, inference.failures)

    def finalize(self, state_fn):
        """Write the run's complete terminal state.

        A resume of a finalized directory restores results directly; a
        kill *during* finalization falls back to the last periodic
        snapshot and deterministically re-executes the tail.
        """
        maybe_fault("checkpoint", "final")
        self._snapshot(state_fn(), reason="final")
        self._append("final", {"barrier": self.barrier_index})
        self.close()

    def close(self):
        if self.journal is not None:
            self.journal.close()
            self.journal = None
