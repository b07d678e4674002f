"""Resource governance: explicit budgets on every untrusted-input stage.

The serving stack accepts programs from arbitrary clients, so every stage
that consumes untrusted input runs under an explicit budget: source size,
token count and literal length in the lexer; nesting depth in the
recursive-descent parser (plus a ``RecursionError`` backstop at each
recursive entry point); node ceilings in the PFG builder; factor/variable
ceilings on the BP factor graph; a visit ceiling on the inference
worklist; and frame/source caps on the wire protocol.

A breached budget raises :class:`ResourceLimitError` — a *typed*,
quarantinable failure that the pipeline records in the failure ledger
with the ``resource-limit`` disposition, exactly like any other
quarantine.  Nothing crashes; one hostile input costs one unit of work.

Governance is observational: every check is a pure threshold comparison
on values the stage computes anyway, so a clean-corpus run is
bit-identical with governance on or off (the differential tests in
``tests/test_resource_limits.py`` pin this down).  Defaults are set far
above anything the in-repo corpus generator produces.
"""

from contextlib import contextmanager
from dataclasses import dataclass, fields

#: Default budgets.  Chosen so the clean corpus (and any plausible real
#: program) never trips them, while recursion bombs, memory bombs, and
#: degenerate graphs all do.
DEFAULT_MAX_SOURCE_CHARS = 4 * 1024 * 1024
DEFAULT_MAX_TOKENS = 1_000_000
DEFAULT_MAX_LITERAL_CHARS = 64 * 1024
#: One nesting level of a parenthesized expression costs 7 interpreter
#: frames in the recursive-descent parser (``parse_expression`` down to
#: ``_parse_primary``; ``tests/test_resource_limits.py`` measures it), so
#: 48 levels come to 336 frames, far under CPython's default 1000-frame
#: recursion limit with room for ambient stack (pytest, serve worker
#: threads).  The counter is therefore what fires on recursion bombs —
#: the ``RecursionError`` backstop only covers exotic stacks that start
#: already deep.
DEFAULT_MAX_PARSE_DEPTH = 48
DEFAULT_MAX_PFG_NODES = 250_000
DEFAULT_MAX_GRAPH_FACTORS = 500_000
DEFAULT_MAX_WORKLIST_VISITS = 1_000_000


class ResourceLimitError(RuntimeError):
    """An untrusted input exceeded one of its resource budgets.

    Typed so every consumer can tell "this input is hostile or
    degenerate" apart from "this stage has a bug": the former is
    quarantined with the ``resource-limit`` disposition, the latter
    keeps its existing quarantine/abort path.
    """

    def __init__(self, limit, observed, cap, detail=""):
        #: Which budget was breached (e.g. ``parse-depth``).
        self.limit = limit
        #: The offending observed value.
        self.observed = observed
        #: The configured ceiling.
        self.cap = cap
        message = "%s limit exceeded: %s > %s" % (limit, observed, cap)
        if detail:
            message += " (%s)" % detail
        super().__init__(message)


@dataclass(frozen=True)
class ResourceLimits:
    """Budgets for every untrusted-input stage (0 = unlimited).

    A frozen dataclass of ints, nested inside
    :class:`repro.resilience.policy.ResiliencePolicy` — like the rest
    of the policy, it stays out of cache config digests (governance never changes clean
    results, so artifacts are shared across limit settings).
    """

    #: Source text length (characters) accepted by the lexer.
    max_source_chars: int = DEFAULT_MAX_SOURCE_CHARS
    #: Tokens produced per compilation unit.
    max_tokens: int = DEFAULT_MAX_TOKENS
    #: Characters in one string literal.
    max_literal_chars: int = DEFAULT_MAX_LITERAL_CHARS
    #: Statement/expression nesting depth in the recursive-descent
    #: parser.  Kept well under CPython's recursion limit so the breach
    #: is a deterministic typed error, not an interpreter
    #: ``RecursionError`` (which the entry-point backstop would still
    #: convert, but nondeterministically w.r.t. ambient stack depth).
    max_parse_depth: int = DEFAULT_MAX_PARSE_DEPTH
    #: Permission flow graph nodes per method.
    max_pfg_nodes: int = DEFAULT_MAX_PFG_NODES
    #: Factor + variable nodes in one method's BP factor graph.
    max_graph_factors: int = DEFAULT_MAX_GRAPH_FACTORS
    #: Total method visits of either inference schedule.
    max_worklist_visits: int = DEFAULT_MAX_WORKLIST_VISITS

    def __post_init__(self):
        for budget in fields(self):
            if getattr(self, budget.name) < 0:
                raise ValueError("%s must be >= 0" % budget.name)

    @classmethod
    def disabled(cls):
        """No budgets anywhere: every cap 0 (``--no-governance``)."""
        return cls(**{budget.name: 0 for budget in fields(cls)})

    def cap(self, name):
        """The ceiling for budget ``name`` (0 = unlimited)."""
        return getattr(self, name)

    def check(self, name, limit, observed, detail=""):
        """Raise :class:`ResourceLimitError` when ``observed`` exceeds
        the ``name`` budget (no-op when unlimited)."""
        ceiling = self.cap(name)
        if ceiling and observed > ceiling:
            raise ResourceLimitError(limit, observed, ceiling, detail)


class MemoryBudgetError(ResourceLimitError):
    """A cached run's RSS is over its ``max_rss_mb`` budget before the
    first visit: a stop there would make no progress, so no visit runs."""


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


@contextmanager
def recursion_guard(limit, detail=""):
    """Convert an escaping ``RecursionError`` into a typed
    :class:`ResourceLimitError`.

    The backstop for recursive entry points whose depth is not counted
    explicitly (pretty-printer, CFG construction): the interpreter
    unwinds the deep stack first, so by the time the error reaches the
    guard there is ample headroom to raise the typed replacement.
    """
    try:
        yield
    except RecursionError as exc:
        raise ResourceLimitError(
            limit, "interpreter-recursion", "sys.recursionlimit", detail
        ) from exc
