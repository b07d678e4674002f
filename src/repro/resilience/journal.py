"""Crash-consistent append-only run journal.

The journal is the durable spine of a checkpointed ANEK-INFER run: every
run-layer event (run begin, checkpoint barrier, snapshot reference,
interrupt, finalization) is one *record* appended
to a single file and fsync'd before the run proceeds.  The format is
built so that a ``SIGKILL`` at **any byte** leaves a readable valid
prefix:

* the file opens with an 8-byte magic (``ANEKJRN1``);
* each record is ``b"R" + u32 payload length + u32 CRC-32 + payload``
  (little-endian), the payload being a pickled ``(kind, data)`` pair;
* records are flushed and ``os.fsync``'d as they are written, so a
  record that was acknowledged to the caller is on disk;
* the reader walks records from the start and stops at the first torn,
  truncated, or checksum-failing record — everything before it is
  trusted, everything after it is garbage to be truncated away on the
  next append (:meth:`Journal.append_to` repairs the tail).

The mid-record fault site (``maybe_fault("journal", ...)`` between the
header write and the payload write) lets the chaos harness produce a
*deliberately* torn tail record and assert the valid-prefix property.
"""

import os
import pickle
import struct
import zlib

from repro.resilience.faults import maybe_fault

#: Leading magic of every journal file; the trailing digit versions the
#: record layout.
MAGIC = b"ANEKJRN1"

#: Per-record header: tag byte + u32 payload length + u32 CRC-32.
_HEADER = struct.Struct("<II")
_TAG = b"R"
_HEADER_SIZE = 1 + _HEADER.size


class Journal:
    """An open, append-only journal file (fsync'd, checksummed records)."""

    def __init__(self, path, handle, index=0):
        self.path = path
        self._handle = handle
        #: Index of the next record to be appended (for fault sites).
        self.index = index

    # -- opening ---------------------------------------------------------------

    @classmethod
    def create(cls, path):
        """Start a fresh journal, truncating anything already there."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        handle = open(path, "wb")
        handle.write(MAGIC)
        handle.flush()
        os.fsync(handle.fileno())
        return cls(path, handle, index=0)

    @classmethod
    def append_to(cls, path, valid_bytes, index):
        """Re-open an existing journal for appending after a crash.

        ``valid_bytes`` (from :func:`read_journal`) is where the valid
        prefix ends; anything past it — a torn tail record — is
        truncated away first so future readers never hit it.
        """
        with open(path, "r+b") as repair:
            repair.truncate(valid_bytes)
            repair.flush()
            os.fsync(repair.fileno())
        handle = open(path, "ab")
        return cls(path, handle, index=index)

    # -- appending -------------------------------------------------------------

    def append(self, kind, data):
        """Durably append one ``(kind, data)`` record.

        The header and payload are written separately with a fault site
        in between: a ``killproc`` there leaves exactly the torn-tail
        state the reader's valid-prefix rule must absorb.  Any
        ``OSError`` (ENOSPC, a yanked volume) propagates to the caller,
        which degrades to no-persist.
        """
        payload = pickle.dumps((kind, data), protocol=pickle.HIGHEST_PROTOCOL)
        header = _TAG + _HEADER.pack(len(payload), zlib.crc32(payload))
        self._handle.write(header)
        self._handle.flush()
        maybe_fault("journal", "record:%d:%s" % (self.index, kind))
        self._handle.write(payload)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.index += 1

    def close(self):
        try:
            self._handle.close()
        except OSError:  # pragma: no cover - close-time races
            pass


def read_journal(path):
    """Read the valid prefix of a journal.

    Returns ``(records, valid_bytes, total_bytes)`` where ``records`` is
    a list of ``(kind, data)`` pairs and ``valid_bytes`` is the offset
    the valid prefix ends at (the truncation point for repair).  A
    missing file reads as ``([], 0, 0)``; a file without the magic reads
    as an empty journal.  Corruption anywhere — a torn header, a short
    payload, a CRC mismatch, an unpicklable payload — ends the walk at
    the last good record instead of raising.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], 0, 0
    if not data.startswith(MAGIC):
        return [], 0, len(data)
    records = []
    offset = len(MAGIC)
    while True:
        if offset + _HEADER_SIZE > len(data):
            break
        if data[offset : offset + 1] != _TAG:
            break
        length, crc = _HEADER.unpack(
            data[offset + 1 : offset + _HEADER_SIZE]
        )
        end = offset + _HEADER_SIZE + length
        if end > len(data):
            break
        payload = data[offset + _HEADER_SIZE : end]
        if zlib.crc32(payload) != crc:
            break
        try:
            kind, value = pickle.loads(payload)
        except Exception:
            break
        records.append((kind, value))
        offset = end
    return records, offset, len(data)
