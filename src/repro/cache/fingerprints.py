"""Canonical fingerprints for the persistent analysis cache.

Every cache key is a SHA-256 over a *canonical byte encoding* of plain
Python data.  Canonical means:

* floats are encoded with :func:`repr` — the shortest string that
  round-trips exactly, so two runs that computed the same float produce
  the same bytes and two different floats never collide;
* dicts and sets are emitted in sorted order of their encoded elements,
  never in iteration order, so keys are independent of insertion history
  and ``PYTHONHASHSEED``;
* lists and tuples keep their order — order that *is* data (statement
  order in a method body, the vote order of an evidence bucket feeding a
  geometric mean) must distinguish keys.

On top of the encoder sit the domain fingerprints: per-source and
per-method content digests (via the canonical pretty printer), the
interface environment digest (everything about every class *except*
method bodies — signatures, annotations, fields, supertypes — i.e. the
inputs a method's analysis can observe about the rest of the program),
and the heuristic/inference configuration digest.
"""

import hashlib
from dataclasses import fields as dataclass_fields

from repro.core.infer import (
    BP_DAMPING,
    BP_ITERS,
    BP_TOLERANCE,
    SUMMARY_CHANGE_THRESHOLD,
)
from repro.java.pretty import (
    pretty_print,
    pretty_print_field,
    pretty_print_method,
)
from repro.java.symbols import method_key

#: Bumped whenever the layout of any cached payload changes; combined
#: with ``repro.__version__`` in every key, so stale artifact formats
#: are never deserialized.
SCHEMA_TAG = "anek-cache-v2"


# ---------------------------------------------------------------------------
# Canonical byte encoding
# ---------------------------------------------------------------------------


def canonical_bytes(value):
    """Encode plain data into canonical, hash-stable bytes."""
    out = []
    _encode(value, out)
    return b"".join(out)


def _encode(value, out):
    if value is None:
        out.append(b"N;")
    elif value is True:
        out.append(b"T;")
    elif value is False:
        out.append(b"F;")
    elif isinstance(value, int):
        out.append(b"i%d;" % value)
    elif isinstance(value, float):
        out.append(b"f" + repr(value).encode("ascii") + b";")
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"s%d:" % len(data))
        out.append(data)
    elif isinstance(value, bytes):
        out.append(b"b%d:" % len(value))
        out.append(value)
    elif isinstance(value, (list, tuple)):
        out.append(b"l")
        for item in value:
            _encode(item, out)
        out.append(b";")
    elif isinstance(value, dict):
        out.append(b"d")
        for key_bytes, item_bytes in sorted(
            (canonical_bytes(key), canonical_bytes(item))
            for key, item in value.items()
        ):
            out.append(key_bytes)
            out.append(item_bytes)
        out.append(b";")
    elif isinstance(value, (set, frozenset)):
        out.append(b"S")
        for item_bytes in sorted(canonical_bytes(item) for item in value):
            out.append(item_bytes)
        out.append(b";")
    else:
        raise TypeError(
            "cannot canonically encode %r" % type(value).__name__
        )


def digest(value):
    """SHA-256 hex digest of a value's canonical encoding."""
    return hashlib.sha256(canonical_bytes(value)).hexdigest()


# ---------------------------------------------------------------------------
# Source / program fingerprints (cache layer 1)
# ---------------------------------------------------------------------------


def source_digest(source):
    """Digest of one raw compilation-unit source string."""
    return digest(("source", source))


def unit_digest(unit):
    """Digest of a parsed unit's canonical (pretty-printed) rendering."""
    return digest(("unit", pretty_print(unit)))


def program_digest(program):
    """Digest of the whole resolved program, unit order preserved."""
    return digest(("program", tuple(unit_digest(u) for u in program.units)))


# ---------------------------------------------------------------------------
# Method / environment fingerprints (cache layers 2-3)
# ---------------------------------------------------------------------------


def _annotation_struct(annotation):
    return (annotation.name, tuple(sorted(annotation.arguments.items())))


def _class_interface(decl):
    """Everything about a class *except* its method bodies.

    A method's analysis observes other classes only through signatures
    (type parameters included: they decide whether a return type names
    a class), annotations, field declarations, and the type hierarchy
    (static dispatch, protocol state spaces, parameter names at call
    sites), so this is the method-external slice of the program that
    must agree for a cached per-method artifact to be valid.
    """
    return (
        decl.name,
        decl.is_interface,
        tuple(decl.modifiers),
        tuple(_annotation_struct(a) for a in decl.annotations),
        tuple(decl.type_params),
        str(decl.superclass) if decl.superclass is not None else None,
        tuple(str(ref) for ref in decl.interfaces),
        tuple(pretty_print_field(f) for f in decl.fields),
        tuple(
            (
                method.name,
                method.is_constructor,
                tuple(method.type_params),
                str(method.return_type)
                if method.return_type is not None
                else None,
                tuple(method.modifiers),
                tuple(_annotation_struct(a) for a in method.annotations),
                tuple(
                    (
                        param.name,
                        str(param.type),
                        tuple(_annotation_struct(a) for a in param.annotations),
                    )
                    for param in method.params
                ),
                method.body is None,
            )
            for method in decl.methods
        ),
    )


def environment_digest(program):
    """Digest of the interface environment every method analysis sees."""
    return digest(
        (
            "environment",
            tuple(
                _class_interface(program.classes[name])
                for name in sorted(program.classes)
            ),
        )
    )


def method_digest(method_ref):
    """Digest of one method's own content (annotations + signature + body)."""
    return digest(
        (
            "method",
            method_ref.class_decl.name,
            pretty_print_method(method_ref.method_decl),
        )
    )


def spec_token(spec):
    """A :class:`repro.permissions.spec.MethodSpec` as plain data.

    Every slot the checker reads is kept: ``str(spec)`` drops the state
    test, and ``to_annotations`` an empty ``@TrueIndicates("")``.
    """
    return (
        tuple((c.kind, c.target, c.state) for c in spec.requires),
        tuple((c.kind, c.target, c.state) for c in spec.ensures),
        spec.true_indicates,
        spec.false_indicates,
    )


def config_digest(config, settings):
    """Digest of every heuristic/inference knob that shapes the marginals.

    Returns ``None`` — *uncacheable* — when the config carries custom
    heuristics: their selector/predicate callables have no canonical
    content representation.
    """
    if config.custom:
        return None
    config_items = []
    for f in dataclass_fields(config):
        if f.name == "custom":
            continue
        config_items.append((f.name, getattr(config, f.name)))
    # Deliberately excluded: the executor (both schedules funnel each
    # solve through the same visit step on the same inputs, so a
    # per-visit artifact is schedule-independent; the schedule *kind*
    # distinguishes final-result entries separately), the engine (the
    # two give bit-identical marginals) and the threshold (read only by
    # extraction, after the run).
    settings_items = (
        ("max_worklist_iters", settings.max_worklist_iters),
        ("BP_ITERS", BP_ITERS),
        ("BP_DAMPING", BP_DAMPING),
        ("BP_TOLERANCE", BP_TOLERANCE),
        ("SUMMARY_CHANGE_THRESHOLD", SUMMARY_CHANGE_THRESHOLD),
        ("reuse_models", settings.reuse_models),
    )
    return digest(("config", tuple(config_items), settings_items))


# ---------------------------------------------------------------------------
# Solve-input canonicalization (cache layer 3)
# ---------------------------------------------------------------------------


def _canonical_dist(dist):
    if dist is None:
        return None
    return tuple(sorted(dist))  # marginal tokens: ((value, prob), ...)


def _canonical_marginal_token(token):
    if token is None:
        return None
    kind, state = token
    return (_canonical_dist(kind), _canonical_dist(state))


def canonical_site_key(site_key, key_of):
    """A site key with its MethodRef (if any) replaced by its stable key.

    A live store keys evidence by ``(MethodRef, index)``, a store
    restored from a snapshot or the cache by ``(method key, index)``;
    canonicalized they coincide, so both address the same persistent
    artifacts.
    """
    owner, index = site_key
    if not isinstance(owner, str):
        owner = key_of.get(owner) or method_key(owner)
    return (owner, index)


def canonical_input_token(token, key_of):
    """Canonicalize a :func:`method_input_fingerprint` token for hashing.

    Summary parts and their distributions are sorted — the model applies
    them by per-target lookup, so their order is bookkeeping.  Evidence
    *bucket* order is kept: the geometric-mean aggregation consumes votes
    in deposit order, so two stores whose buckets differ only in order
    are distinct inputs and must not collide.
    """
    sites, evidence = token
    canonical_sites = []
    for site in sites:
        if site is None:
            canonical_sites.append(None)
        else:
            canonical_sites.append(
                tuple(
                    sorted(
                        (slot, target, _canonical_marginal_token(part))
                        for slot, target, part in site
                    )
                )
            )
    canonical_evidence = []
    for slot, target, bucket in evidence:
        canonical_evidence.append(
            (
                slot,
                target,
                tuple(
                    (
                        canonical_site_key(site_key, key_of),
                        _canonical_marginal_token(part),
                    )
                    for site_key, part in bucket
                ),
            )
        )
    canonical_evidence.sort(key=lambda entry: (entry[0], entry[1]))
    return (tuple(canonical_sites), tuple(canonical_evidence))
