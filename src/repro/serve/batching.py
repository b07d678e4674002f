"""Cross-request batch planning.

The dispatcher pulls a batch of admitted requests and plans it:

* **coalescing** — requests with the same *work fingerprint* (identical
  sources, op, and solve-relevant knobs) collapse into one group that is
  analyzed once and fanned out to every requester.  Under concurrent
  load of a hot program this converts N solves into 1 — the serving
  analogue of the compiled kernel's "build once, sweep many" rule, and
  trivially bit-identical because every member receives the same result.
* **disjoint concurrency** — groups with *different* fingerprints touch
  disjoint per-request state (each group re-materializes its program
  from the content-addressed store; no AST, summary store, or model is
  shared), so one dispatch wave submits them all to the warm worker pool
  at once and their compiled-kernel sweeps run concurrently.

Deliberately **not** done: merging distinct programs into one inference.
ANEK-INFER runs a fixed visit budget (3 passes) rather than to a
fixpoint, so a merged worklist would truncate at different points than
each solo run and break the served ≡ cold bit-identity bar (DESIGN
§12).  Sharing between distinct requests happens through the persistent
cache instead, where replay is trajectory-exact.
"""

from dataclasses import dataclass, field
from typing import List

from repro.cache.fingerprints import digest
from repro.serve.protocol import REQUEST_DEFAULTS

#: Request fields that define the *work*, i.e. participate in the
#: coalescing fingerprint: every field but two.  ``include_marginals``
#: only widens the response payload, so a marginal-requesting member can
#: share a group with one that is not, and ``idem`` names a retry, not
#: work.  ``deadline`` *is* included even though it does not change the
#: program under analysis: a deadline'd request maps its remaining
#: budget into the solve deadline of the resilience policy, and letting
#: it share a solve with a deadline-free request would let one
#: requester's budget degrade another's result — exactly the
#: cross-request state bleed the serving layer must not have.
WORK_FIELDS = tuple(
    name
    for name in REQUEST_DEFAULTS
    if name not in ("include_marginals", "idem")
)


def work_fingerprint(request):
    """Hash-seed-independent fingerprint of a normalized request's work."""
    return digest(
        ("serve-work", tuple((name, request[name]) for name in WORK_FIELDS))
    )


@dataclass
class BatchGroup:
    """One unit of execution: a fingerprint and every member waiting on it."""

    fingerprint: str
    members: List[object] = field(default_factory=list)

    @property
    def request(self):
        """The work to run — identical across members by construction."""
        return self.members[0].request


@dataclass
class BatchPlan:
    """The dispatch plan for one wave."""

    groups: List[BatchGroup] = field(default_factory=list)
    #: Requests answered by another member's run (batch size - groups).
    coalesced: int = 0

    @property
    def size(self):
        return sum(len(group.members) for group in self.groups)


def plan_batch(pending):
    """Group one batch of :class:`PendingRequest` by work fingerprint.

    Group order is arrival order of each fingerprint's first member, and
    member order within a group is arrival order — both deterministic
    given the admission sequence, neither observable in results (every
    member of a group receives the same payload; distinct groups share
    nothing).
    """
    groups = {}
    ordered = []
    for item in pending:
        group = groups.get(item.fingerprint)
        if group is None:
            group = groups[item.fingerprint] = BatchGroup(item.fingerprint)
            ordered.append(group)
        group.members.append(item)
    return BatchPlan(
        groups=ordered, coalesced=len(pending) - len(ordered)
    )
