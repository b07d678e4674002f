"""The persistent analysis cache: four content-addressed layers.

Layer 1 — **parsed units**: raw source text → parsed compilation unit.
Layer 2 — **frontend artifacts**: per-method PFGs (the input to
constraint generation, whose factor graph is a deterministic function of
the PFG + config) plus the method's resolved call targets, keyed by the
method's *static fingerprint* — its own pretty-printed content plus the
interface environment digest.
Layer 3 — **solver artifacts**: (a) per-visit solve outcomes (boundary
marginals + evidence deposits) keyed by static fingerprint × config ×
the canonicalized summary/evidence input token, and (b) whole-run final
results keyed by program × config × schedule kind.
Layer 4 — **check verdicts**: each method's tier-1 verdict (residue
reason or none, plus its site count) keyed by static fingerprint × its
own spec × its callees' specs, as the checker reads them after the
applier wrote the inferred specs in.

The bit-identity story: ANEK-INFER runs a *fixed-budget* (non-fixpoint)
trajectory, so warm-starting it with converged summaries would change
the trajectory and therefore the marginals.  Instead each worklist visit
is treated as a pure function of its fingerprinted inputs and its
*outcome* is replayed from the store — same trajectory, same floats, no
BP sweep.  Invalidation is automatic and exact: any changed input
changes the key, so a stale artifact is simply never addressed again,
and the per-layer misses count exactly what a run did again.
"""

import warnings
from dataclasses import dataclass, fields as dataclass_fields, replace

import repro
from repro.cache.fingerprints import (
    SCHEMA_TAG,
    canonical_input_token,
    canonical_site_key,
    config_digest,
    digest,
    environment_digest,
    method_digest,
    program_digest,
    source_digest,
    spec_token,
)
from repro.cache.pfgser import pfg_from_payload, pfg_to_payload
from repro.cache.store import ArtifactStore

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".anek-cache"


@dataclass
class CacheStats:
    """Per-layer hit/miss counters, accumulated across pipeline stages.
    The misses are the one record of what a run did again."""

    #: Layer 1: compilation units served from / missing in the store.
    parse_hits: int = 0
    parse_misses: int = 0
    #: Layer 2: per-method PFG + call-target artifacts.
    pfg_hits: int = 0
    pfg_misses: int = 0
    #: Layer 3a: per-visit solve outcomes replayed / solved cold.
    solve_hits: int = 0
    solve_misses: int = 0
    #: Layer 3b: whole-run warm starts.
    final_hits: int = 0
    final_misses: int = 0
    #: Layer 4: tier-1 check verdicts replayed / planned again.
    verdict_hits: int = 0
    verdict_misses: int = 0
    #: Entries that existed but failed to deserialize (treated as misses).
    corrupt_entries: int = 0
    #: Entries that deserialized but failed schema/shape validation —
    #: quarantined (deleted) exactly like corrupt ones.
    schema_invalid: int = 0
    #: Writes that failed with an OSError (ENOSPC, permissions): each
    #: degraded to a miss on the next read instead of aborting the run.
    store_errors: int = 0
    #: True when the config cannot be fingerprinted (custom heuristics).
    uncacheable: bool = False

    def hits(self):
        return (
            self.parse_hits
            + self.pfg_hits
            + self.solve_hits
            + self.final_hits
            + self.verdict_hits
        )

    def misses(self):
        return (
            self.parse_misses
            + self.pfg_misses
            + self.solve_misses
            + self.final_misses
            + self.verdict_misses
        )

    def hit_ratio(self):
        total = self.hits() + self.misses()
        if total == 0:
            return 0.0
        return self.hits() / total

    def delta(self, earlier):
        """Counter movement since an ``earlier`` snapshot of this object."""
        changes = {}
        for f in dataclass_fields(self):
            if f.name == "uncacheable":
                continue
            changes[f.name] = getattr(self, f.name) - getattr(earlier, f.name)
        return replace(CacheStats(uncacheable=self.uncacheable), **changes)

    def snapshot(self):
        return replace(self)

    def to_payload(self):
        """The counters as a plain dict (serving-layer responses)."""
        return {
            f.name: getattr(self, f.name) for f in dataclass_fields(self)
        }

    def describe(self):
        lines = ["analysis cache:"]
        lines.append(
            "  units   %5d hit %5d miss" % (self.parse_hits, self.parse_misses)
        )
        lines.append(
            "  pfgs    %5d hit %5d miss" % (self.pfg_hits, self.pfg_misses)
        )
        lines.append(
            "  solves  %5d hit %5d miss"
            % (self.solve_hits, self.solve_misses)
        )
        lines.append(
            "  final   %5d hit %5d miss" % (self.final_hits, self.final_misses)
        )
        lines.append(
            "  verdict %5d hit %5d miss"
            % (self.verdict_hits, self.verdict_misses)
        )
        lines.append(
            "  corrupt %d, schema-invalid %d, hit ratio %.1f%%"
            % (
                self.corrupt_entries,
                self.schema_invalid,
                100.0 * self.hit_ratio(),
            )
        )
        if self.store_errors:
            lines.append(
                "  %d write error(s) — persistence degraded to read-only"
                % self.store_errors
            )
        if self.uncacheable:
            lines.append("  (disabled: config is not fingerprintable)")
        return "\n".join(lines)


class AnalysisCache:
    """Entry point: owns the store, the stats, and layer 1 (parsing)."""

    def __init__(self, cache_dir=DEFAULT_CACHE_DIR, schema_tag=SCHEMA_TAG):
        self.cache_dir = cache_dir
        self.schema_tag = schema_tag
        self.store = ArtifactStore(cache_dir)
        self.stats = CacheStats()

    def key(self, layer, content):
        """A full store key: schema tag + repro version + layer + content."""
        return digest((self.schema_tag, repro.__version__, layer, content))

    def load(self, key):
        before = self.store.corrupt_count
        payload = self.store.load(key)
        self.stats.corrupt_entries += self.store.corrupt_count - before
        return payload

    def save(self, key, payload):
        """Persist via the store, surfacing write failures as a counted
        ``store_errors`` stat (the store itself degrades to no-persist).
        Returns True when the entry is in the store afterwards."""
        saved = self.store.save(key, payload)
        self.stats.store_errors = self.store.store_errors
        return saved

    # -- layer 1: parsing ------------------------------------------------------

    def parse(self, source, limits=None):
        """Parse one source string, via the store when possible.

        ``limits`` governs only the cold-parse path: a cache hit proves
        the source already parsed cleanly, and governance never changes
        what a successful parse produces.
        """
        from repro.java.ast import CompilationUnit
        from repro.java.parser import parse_compilation_unit

        key = self.key("unit", source_digest(source))
        unit = self.load(key)
        if unit is not None and not isinstance(unit, CompilationUnit):
            # Deserialized fine but is not a compilation unit: quarantine
            # it (delete, or ``save`` would pin it) and fall through to a
            # cold parse.
            self.stats.schema_invalid += 1
            warnings.warn(
                "discarding schema-invalid unit cache entry (expected "
                "CompilationUnit, got %s); falling back to a cold parse"
                % type(unit).__name__,
                RuntimeWarning,
                stacklevel=2,
            )
            self.store.discard(key)
            unit = None
        if unit is not None:
            self.stats.parse_hits += 1
            return unit
        self.stats.parse_misses += 1
        unit = parse_compilation_unit(source, limits=limits)
        self.save(key, unit)
        return unit

    # -- binding to one resolved program --------------------------------------

    def bind(self, program, config, settings):
        """A :class:`BoundCache` for one program/config, or None when the
        config cannot be fingerprinted (persistent caching is then off
        for this run; in-memory reuse is unaffected)."""
        config_fp = config_digest(config, settings)
        if config_fp is None:
            if not self.stats.uncacheable:
                warnings.warn(
                    "persistent analysis cache disabled: custom heuristics "
                    "have no canonical fingerprint",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self.stats.uncacheable = True
            return None
        return BoundCache(self, program, config_fp)


class BoundCache:
    """Layers 2-3 for one resolved program under one fingerprinted config."""

    def __init__(self, cache, program, config_fp):
        self.cache = cache
        self.stats = cache.stats
        self.store = cache.store
        self.program = program
        self.config_fp = config_fp
        self.table = program.method_key_table()
        self.key_of = {ref: key for key, ref in self.table.items()}
        self.env_fp = environment_digest(program)
        self.program_fp = program_digest(program)
        self._method_fps = {}

    def _quarantine_entry(self, key, layer, exc):
        """A payload deserialized but failed shape validation: count it,
        delete it (``save`` would otherwise pin it forever), miss."""
        self.stats.schema_invalid += 1
        warnings.warn(
            "discarding schema-invalid %s cache entry (%s: %s); "
            "falling back to a cold build"
            % (layer, type(exc).__name__, exc),
            RuntimeWarning,
            stacklevel=3,
        )
        self.store.discard(key)

    def method_fingerprint(self, method_ref):
        """The method's static fingerprint: own content × environment."""
        fingerprint = self._method_fps.get(method_ref)
        if fingerprint is None:
            fingerprint = digest(
                (self.key_of[method_ref], method_digest(method_ref), self.env_fp)
            )
            self._method_fps[method_ref] = fingerprint
        return fingerprint

    # -- layer 2: frontend artifacts (PFG + call targets) ----------------------

    def load_frontend(self, method_ref):
        """(pfg, [(callee_ref, line), ...]) from the store, or (None, None)."""
        key = self.cache.key("pfg", self.method_fingerprint(method_ref))
        payload = self.cache.load(key)
        if payload is not None:
            try:
                if not isinstance(payload, dict):
                    raise TypeError(
                        "expected dict payload, got %s" % type(payload).__name__
                    )
                pfg = pfg_from_payload(payload["pfg"], method_ref, self.table)
                callees = [
                    (self.table[callee_key], line)
                    for callee_key, line in payload["callees"]
                ]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                self._quarantine_entry(key, "pfg", exc)
                payload = None
            else:
                self.stats.pfg_hits += 1
                return pfg, callees
        self.stats.pfg_misses += 1
        return None, None

    def store_frontend(self, method_ref, pfg, callees):
        key = self.cache.key("pfg", self.method_fingerprint(method_ref))
        self.cache.save(
            key,
            {
                "pfg": pfg_to_payload(pfg, self.key_of),
                "callees": [
                    (self.key_of[callee], line) for callee, line in callees
                ],
            },
        )

    # -- layer 3a: per-visit solve outcomes ------------------------------------

    def solve_key(self, method_ref, input_token):
        """The store key of one worklist visit's outcome."""
        return self.cache.key(
            "solve",
            (
                self.method_fingerprint(method_ref),
                self.config_fp,
                canonical_input_token(input_token, self.key_of),
            ),
        )

    def load_solve(self, key):
        """(boundary, deposits) with live refs/marginals, or None."""
        from repro.core.summaries import TargetMarginal

        payload = self.cache.load(key)
        if payload is not None:
            try:
                if not isinstance(payload, dict):
                    raise TypeError(
                        "expected dict payload, got %s" % type(payload).__name__
                    )
                boundary = {
                    (slot, target): TargetMarginal.from_payload(part)
                    for (slot, target), part in payload["boundary"]
                }
                deposits = [
                    (
                        self.table[callee_key],
                        slot,
                        target,
                        (self.table[owner_key], site_index),
                        TargetMarginal.from_payload(part),
                    )
                    for (
                        callee_key,
                        slot,
                        target,
                        (owner_key, site_index),
                        part,
                    ) in payload["deposits"]
                ]
            except (KeyError, IndexError, ValueError, TypeError) as exc:
                self._quarantine_entry(key, "solve", exc)
            else:
                self.stats.solve_hits += 1
                return boundary, deposits
        self.stats.solve_misses += 1
        return None

    def store_solve(self, key, boundary, deposits):
        payload = {
            "boundary": [
                (slot_target, marginal.to_payload())
                for slot_target, marginal in boundary.items()
            ],
            "deposits": [
                (
                    self.key_of[callee],
                    slot,
                    target,
                    canonical_site_key(site_key, self.key_of),
                    marginal.to_payload(),
                )
                for callee, slot, target, site_key, marginal in deposits
            ],
        }
        return self.cache.save(key, payload)

    # -- layer 3b: whole-run final results -------------------------------------

    def final_key(self, schedule_kind):
        return self.cache.key(
            "final", (self.program_fp, self.config_fp, schedule_kind)
        )

    def load_final(self, schedule_kind):
        """(results, callees) for a warm start, or None; ``callees`` is
        what :meth:`store_final` was given."""
        from repro.core.summaries import TargetMarginal

        final_key = self.final_key(schedule_kind)
        payload = self.cache.load(final_key)
        if payload is not None:
            try:
                if not isinstance(payload, dict):
                    raise TypeError(
                        "expected dict payload, got %s" % type(payload).__name__
                    )
                results = {}
                for key, boundary in payload["results"]:
                    results[self.table[key]] = {
                        (slot, target): TargetMarginal.from_payload(part)
                        for (slot, target), part in boundary
                    }
                callees = {
                    self.table[key]: tuple(
                        self.table[callee] for callee in callee_keys
                    )
                    for key, callee_keys in payload["callees"]
                }
            except (KeyError, IndexError, ValueError, TypeError) as exc:
                self._quarantine_entry(final_key, "final", exc)
            else:
                self.stats.final_hits += 1
                return results, callees
        self.stats.final_misses += 1
        return None

    def store_final(self, schedule_kind, results, callees):
        payload = {
            "results": [
                (
                    self.key_of[method_ref],
                    [
                        (slot_target, marginal.to_payload())
                        for slot_target, marginal in boundary.items()
                    ],
                )
                for method_ref, boundary in results.items()
            ],
            "callees": [
                (
                    self.key_of[method_ref],
                    [self.key_of[callee] for callee in method_callees],
                )
                for method_ref, method_callees in callees.items()
            ],
        }
        self.cache.save(self.final_key(schedule_kind), payload)


class CheckVerdicts:
    """Layer 4 for one check of one program: each method's tier-1
    verdict, ``(reason, sites)``, replayed by :func:`repro.plural.checker
    .run_check` instead of planned again.

    The checker reads a method's annotations only through ``spec_of``,
    on the method itself and on the callees and constructors it
    resolves, and reads everything else from the method and the class
    interfaces.  So a verdict is keyed by the method's static
    fingerprint, its own spec and the specs of its distinct resolved
    callees (sorted by method key), as ``spec_of`` returns them after
    the applier wrote the inferred specs in (DESIGN §9).
    """

    def __init__(self, bound, callees):
        """``callees`` maps each method whose call targets were resolved
        to its distinct callees, sorted by method key; a method missing
        from it (quarantined before its targets were known) has no key
        and is always planned.  The fingerprints are taken here, so a
        check after the applier still keys on the sources as written."""
        self.bound = bound
        self.callees = callees
        self.fingerprints = {
            method_ref: bound.method_fingerprint(method_ref)
            for method_ref in callees
        }

    def key(self, method_ref, checker):
        """The store key of the method's verdict, or None."""
        callees = self.callees.get(method_ref)
        if callees is None:
            return None
        spec_of = checker.spec_of
        return self.bound.cache.key(
            "verdict",
            (
                self.fingerprints[method_ref],
                checker.default_this_kind,
                spec_token(spec_of(method_ref)),
                tuple(spec_token(spec_of(callee)) for callee in callees),
            ),
        )

    def load(self, key):
        """The stored ``(reason, sites)``, or None."""
        bound = self.bound
        payload = bound.cache.load(key)
        if payload is not None:
            try:
                reason, sites = payload
                if not (reason is None or isinstance(reason, str)) or not (
                    isinstance(sites, int) and sites >= 0
                ):
                    raise ValueError("malformed verdict %r" % (payload,))
            except (TypeError, ValueError) as exc:
                bound._quarantine_entry(key, "verdict", exc)
            else:
                bound.stats.verdict_hits += 1
                return reason, sites
        bound.stats.verdict_misses += 1
        return None

    def store(self, key, reason, sites):
        self.bound.cache.save(key, (reason, sites))
