"""Analysis as a service: the persistent ``repro serve`` daemon.

The package splits along the request's path through the daemon:

* :mod:`repro.serve.protocol` — framed-JSON wire format + validation;
* :mod:`repro.serve.queueing` — bounded admission queue and metrics;
* :mod:`repro.serve.batching` — coalescing/concurrency batch planner;
* :mod:`repro.serve.replay` — completed work by fingerprint;
* :mod:`repro.serve.server` — the daemon (front end, dispatcher, workers);
* :mod:`repro.serve.client` — the synchronous client (reconnect, retry);
* :mod:`repro.serve.supervisor` — the ``--supervise`` restart loop.
"""

from repro.serve.batching import plan_batch, work_fingerprint
from repro.serve.client import ServeClient, ServeError, wait_for_server
from repro.serve.protocol import (
    OPS,
    RETRYABLE_STATUSES,
    STATUSES,
    ProtocolError,
    normalize_request,
)
from repro.serve.queueing import BoundedRequestQueue, PendingRequest
from repro.serve.replay import ReplayCache
from repro.serve.server import (
    AnekServer,
    ServeAddressInUse,
    probe_live_daemon,
)
from repro.serve.supervisor import (
    EXIT_CRASHLOOP,
    ServeSupervisor,
    build_child_argv,
)

__all__ = [
    "OPS",
    "RETRYABLE_STATUSES",
    "STATUSES",
    "AnekServer",
    "BoundedRequestQueue",
    "EXIT_CRASHLOOP",
    "PendingRequest",
    "ProtocolError",
    "ReplayCache",
    "ServeAddressInUse",
    "ServeClient",
    "ServeError",
    "ServeSupervisor",
    "build_child_argv",
    "normalize_request",
    "plan_batch",
    "probe_live_daemon",
    "wait_for_server",
    "work_fingerprint",
]
