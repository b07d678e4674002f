"""On-disk content-addressed artifact store.

Artifacts live under ``<root>/objects/<k>/<key>.pkl``, fanned out by the
key's first hex digit into sixteen directories.  Creating a directory
costs about as much as creating an entry, and with 256 directories a
cold fill of a few hundred entries made one for most of them.  Two
durability rules:

* **writes are atomic** — payloads are pickled into a temp file in the
  destination directory and ``os.replace``\\ d into place, so a reader
  (including another run sharing the directory) never observes a torn
  artifact;
* **reads never crash the analysis** — a corrupted, truncated, or
  unreadable entry is logged with a warning, deleted when possible, and
  reported as a miss, so the pipeline falls back to a cold build.
"""

import os
import pickle
import tempfile
import warnings


class ArtifactStore:
    """Pickle-per-key persistence with corruption fallback."""

    def __init__(self, root):
        self.root = root
        #: Entries that existed but could not be deserialized.
        self.corrupt_count = 0
        #: Writes that failed with an OSError (ENOSPC, permissions, a
        #: yanked volume) — each degraded to a miss-on-next-read instead
        #: of aborting the run.
        self.store_errors = 0
        self._write_disabled = False

    # -- keyed artifacts ------------------------------------------------------

    def _path(self, key):
        return os.path.join(self.root, "objects", key[:1], key + ".pkl")

    def load(self, key):
        """The stored payload, or None on miss *or* corruption."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception as exc:
            self.corrupt_count += 1
            warnings.warn(
                "discarding corrupt cache entry %s (%s: %s); "
                "falling back to a cold build"
                % (path, type(exc).__name__, exc),
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def save(self, key, payload):
        """Atomically persist one payload; failures disable further writes.
        Returns True when the entry is in the store afterwards."""
        if self._write_disabled:
            return False
        path = self._path(key)
        if os.path.exists(path):
            return True
        return self._atomic_write(
            path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def discard(self, key):
        """Best-effort removal of one entry (schema-invalid quarantine:
        without this, ``save``'s exists-check would pin the bad artifact
        forever)."""
        try:
            os.remove(self._path(key))
        except OSError:
            pass

    # -- plumbing -------------------------------------------------------------

    def _atomic_write(self, path, data):
        """Write ``data`` to ``path`` atomically; returns True on success."""
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            handle, temp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(handle, "wb") as stream:
                    stream.write(data)
                os.replace(temp_path, path)
            except BaseException:
                try:
                    os.remove(temp_path)
                except OSError:
                    pass
                raise
        except OSError as exc:
            # ENOSPC/EROFS mid-run must degrade to a counted miss, not
            # abort the analysis: further writes are disabled, reads keep
            # serving whatever was persisted before the disk filled.
            self.store_errors += 1
            self._write_disabled = True
            warnings.warn(
                "analysis cache is not writable (%s: %s); continuing "
                "without persisting artifacts" % (type(exc).__name__, exc),
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        return True
