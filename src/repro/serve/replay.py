"""The completed-work store: repeated work is answered, not run again.

ANEK-INFER runs a fixed visit budget and then thresholds its marginals,
so a served answer is a pure function of the request's *work
fingerprint* (:func:`repro.serve.batching.work_fingerprint`).  The
daemon keeps a bounded LRU of finished outcomes keyed by it alone,
looks every ``infer``/``check`` request up before admission, and
stores each executed group's outcome before any member's response is
sent.  Only an ``ok`` outcome with an empty failure ledger is stored: a
degraded, failed or expired one depends on more than the fingerprint
(the fault or the clock may not recur), so its repeat runs again.  An
outcome is held as compact JSON text and decoded per hit: smaller than
its dicts, and immutable, so nothing can change a stored answer.
"""

import json
import threading
from collections import OrderedDict

#: Completed outcomes retained.
REPLAY_LIMIT = 256


class ReplayCache:
    """A thread-safe bounded LRU of completed outcomes by fingerprint.

    An outcome is the executed group's ``status``, ``result`` and
    ``stats``, plus ``marginals`` when a member asked for them.
    Counters feed the daemon's ``stats``/``health`` payloads.
    """

    def __init__(self, limit=REPLAY_LIMIT):
        self.limit = limit
        #: fingerprint -> (outcome JSON text, carries marginals).
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        #: Outcomes stored.
        self.stored = 0
        #: Lookups answered from the store (executions avoided).
        self.replays = 0
        #: Entries dropped by the LRU bound.
        self.evicted = 0

    def lookup(self, fingerprint, marginals=False):
        """A fresh copy of the stored outcome for this work, or None.

        With ``marginals`` only an outcome that carries them is a hit.
        A hit refreshes the entry's LRU position and counts one replay.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None or (marginals and not entry[1]):
                return None
            self._entries.move_to_end(fingerprint)
            self.replays += 1
        return json.loads(entry[0])

    def store(self, fingerprint, outcome):
        """Retain one executed outcome if it depends on nothing but its
        fingerprint; returns whether it was stored."""
        if outcome["status"] != "ok" or outcome["stats"]["failures"]["failures"]:
            return False
        entry = (
            json.dumps(outcome, separators=(",", ":")),
            "marginals" in outcome,
        )
        with self._lock:
            if fingerprint not in self._entries:
                self.stored += 1
            self._entries[fingerprint] = entry
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
                self.evicted += 1
        return True

    def to_payload(self):
        with self._lock:
            return {
                "entries": len(self._entries),
                "limit": self.limit,
                "stored": self.stored,
                "replays": self.replays,
                "evicted": self.evicted,
            }
