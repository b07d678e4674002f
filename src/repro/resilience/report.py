"""The structured failure ledger of a resilient pipeline run.

Every isolation, retry, and degradation event is appended to a
:class:`FailureReport` as one :class:`FailureRecord` — plain, picklable
data, so records serialize to the ``--fail-report`` JSON unchanged.
"""

import json
from dataclasses import asdict, dataclass, field

#: Pipeline stages a failure can be attributed to.
STAGES = (
    "parse",
    "resolve",
    "pfg",
    "constraints",
    "solve",
    "cache",
    "resource",
    "applier",
    "plural-check",
    "serve",
    "check",
)

#: What became of the failing unit of work.
DISPOSITIONS = (
    #: A compilation unit was dropped; the rest of the corpus proceeds.
    "unit-quarantined",
    #: A method was dropped from inference; it gets a conservative spec.
    "method-quarantined",
    #: A retry (same or escalated damping) produced a clean result — no
    #: observable degradation.
    "recovered",
    #: The solve fell all the way back to prior-only marginals.
    "degraded-prior-only",
    #: A cache entry was discarded (corrupt or schema-invalid).
    "entry-quarantined",
    #: A downstream stage (applier/checker) was skipped for this run.
    "stage-skipped",
    #: A cached run stopped between two visits on SIGTERM/SIGINT or over
    #: its RSS budget; rerunning it continues from the cache — not a
    #: result defect.
    "run-interrupted",
    #: A served request failed (handler crash) or missed its deadline;
    #: the requester got a failure response, the daemon kept serving.
    "request-failed",
    "request-expired",
    #: A served request was refused at admission because the daemon was
    #: over its RSS budget — nothing executed, the refusal is retryable,
    #: and shedding (instead of OOMing) is what kept the daemon up.
    "request-shed",
    #: A tier-1 (bit-vector) check fault degraded the affected methods
    #: to the full fractional-permission checker — warnings are still
    #: bit-identical to a clean run, so this is not a degradation.
    "tier-fallback",
    #: An input exceeded an explicit resource budget (nesting depth,
    #: token count, graph size, worklist visits...) and the affected
    #: unit/method/stage was quarantined instead of crashing the run.
    "resource-limit",
)


@dataclass
class FailureRecord:
    """One failure event: where, what, and how it was handled."""

    #: Pipeline stage (one of :data:`STAGES`).
    stage: str
    #: Stable identity of the failing unit of work — a method key or a
    #: ``unit:<index>`` tag.
    key: str
    #: Exception class name (or a symbolic reason like ``diverged``).
    error: str
    #: Human-readable one-liner.
    message: str
    #: How it was handled (one of :data:`DISPOSITIONS`).
    disposition: str
    #: How many recovery attempts were spent before the disposition.
    retries: int = 0

    def format(self):
        suffix = " after %d retr%s" % (
            self.retries,
            "y" if self.retries == 1 else "ies",
        ) if self.retries else ""
        return "[%s] %s: %s (%s)%s" % (
            self.stage,
            self.key,
            self.error,
            self.disposition,
            suffix,
        )


def record_from_exception(stage, key, exc, disposition, retries=0):
    """Build a :class:`FailureRecord` from a live exception."""
    return FailureRecord(
        stage=stage,
        key=key,
        error=type(exc).__name__,
        message=str(exc),
        disposition=disposition,
        retries=retries,
    )


#: Dispositions that changed the run's output (vs. fully recovered).
_DEGRADED = frozenset(
    (
        "unit-quarantined",
        "method-quarantined",
        "degraded-prior-only",
        "stage-skipped",
        "resource-limit",
    )
)


@dataclass
class FailureReport:
    """The ordered ledger of every failure event in one pipeline run.

    ``interrupted`` marks a report of a run that stopped between two
    visits: it is incomplete, and a rerun continues it from the cache.
    """

    records: list = field(default_factory=list)
    #: True when the run stopped between two visits (``RunInterrupted``).
    interrupted: bool = False

    def add(self, record):
        self.records.append(record)
        return record

    def extend(self, records):
        self.records.extend(records)

    def record(self, stage, key, exc, disposition, retries=0):
        """Append a record built from a live exception."""
        return self.add(
            record_from_exception(stage, key, exc, disposition, retries)
        )

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __bool__(self):
        return bool(self.records)

    @property
    def is_clean(self):
        return not self.records

    def by_stage(self):
        """{stage: count}, insertion-ordered by first occurrence."""
        counts = {}
        for record in self.records:
            counts[record.stage] = counts.get(record.stage, 0) + 1
        return counts

    def degraded(self):
        """Records whose disposition changed the run's output."""
        return [r for r in self.records if r.disposition in _DEGRADED]

    @property
    def has_degradation(self):
        """True when any output-changing disposition occurred.

        A report with only ``recovered`` records describes a run whose results are bit-identical to a failure-free
        one — safe to persist and to trust downstream.
        """
        return bool(self.degraded())

    def summary_line(self):
        """A one-line human summary for the CLI."""
        suffix = " (interrupted — rerun to continue)" if self.interrupted else ""
        if self.is_clean:
            return "resilience: no failures" + suffix
        parts = [
            "%s=%d" % (stage, count)
            for stage, count in sorted(self.by_stage().items())
        ]
        kind = (
            "completed with quarantines"
            if self.has_degradation
            else "all failures recovered"
        )
        return "resilience: %d failure(s) [%s] — %s%s" % (
            len(self.records),
            " ".join(parts),
            kind,
            suffix,
        )

    def describe(self):
        lines = [self.summary_line()]
        for record in self.records:
            lines.append("  " + record.format())
        return "\n".join(lines)

    def to_payload(self):
        """A plain-data dict, ready for ``json.dumps``."""
        return {
            "clean": self.is_clean,
            "degraded": self.has_degradation,
            "interrupted": self.interrupted,
            "by_stage": self.by_stage(),
            "failures": [asdict(record) for record in self.records],
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)
