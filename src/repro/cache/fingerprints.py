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

On top of the encoder sit the domain fingerprints: per-source digests
of the raw text, per-method content digests (via the canonical pretty
printer), per-class interface digests (everything about a class
*except* its method bodies — signatures, annotations, fields,
supertypes — i.e. the inputs a method's analysis can observe about the
rest of the program) and the environment digest over all of them, and
the heuristic/inference configuration digest.  The parse layer stores
each unit's method and class digests with the unit
(:func:`unit_digests`), so a warm run pretty-prints nothing.
"""

import hashlib
from dataclasses import fields as dataclass_fields

from repro.core.infer import (
    BP_DAMPING,
    BP_ITERS,
    BP_TOLERANCE,
    SUMMARY_CHANGE_THRESHOLD,
)
from repro.java.pretty import pretty_print_field, pretty_print_method
from repro.java.symbols import MethodRef, method_key

#: Bumped whenever the layout of any cached payload changes; combined
#: with ``repro.__version__`` in every key, so stale artifact formats
#: are never deserialized.
SCHEMA_TAG = "anek-cache-v4"


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
# Source fingerprints (cache layer 1)
# ---------------------------------------------------------------------------


def source_digest(source):
    """Digest of one raw compilation-unit source string."""
    return digest(("source", source))


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


def class_digest(decl):
    """Digest of one class's interface (:func:`_class_interface`)."""
    return digest(("class", _class_interface(decl)))


def method_digest(method_ref):
    """Digest of one method's own content (annotations + signature + body)."""
    return digest(
        (
            "method",
            method_ref.class_decl.name,
            pretty_print_method(method_ref.method_decl),
        )
    )


def unit_digests(unit):
    """The digests the parse layer stores with ``unit``: each class's
    interface digest by class name, and each concrete method's content
    digest by method key."""
    classes = {}
    methods = {}
    for decl in unit.types:
        classes[decl.name] = class_digest(decl)
        for method in decl.methods:
            if method.body is not None:
                ref = MethodRef(decl, method)
                methods[method_key(ref)] = method_digest(ref)
    return {"classes": classes, "methods": methods}


def stored_digests(program, kind):
    """The ``kind`` (``"classes"`` or ``"methods"``) digests stored with
    the program's units; a unit parsed outside the cache adds none."""
    stored = {}
    for unit in program.units:
        if unit.digests is not None:
            stored.update(unit.digests[kind])
    return stored


def environment_digest(program):
    """Digest of the interface environment every method analysis sees:
    the class digests in class-name order, stored or taken here."""
    stored = stored_digests(program, "classes")
    return digest(
        (
            "environment",
            tuple(
                stored[name] if name in stored
                else class_digest(program.classes[name])
                for name in sorted(program.classes)
            ),
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
    # per-visit artifact is schedule-independent), the engine (the two
    # give bit-identical marginals) and the threshold (read only by
    # extraction, after the run).
    settings_items = (
        ("max_worklist_iters", settings.max_worklist_iters),
        ("BP_ITERS", BP_ITERS),
        ("BP_DAMPING", BP_DAMPING),
        ("BP_TOLERANCE", BP_TOLERANCE),
        ("SUMMARY_CHANGE_THRESHOLD", SUMMARY_CHANGE_THRESHOLD),
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
    """A ``(MethodRef, index)`` site key with its owner replaced by the
    owner's stable method key, so the key survives a process boundary."""
    owner, index = site_key
    return (key_of[owner], index)


def canonical_summary(token):
    """Canonicalize a :meth:`SummaryStore.summary_token
    <repro.core.summaries.SummaryStore.summary_token>` for hashing.

    Summary parts and their distributions are sorted — the model applies
    them by per-target lookup, so their order is bookkeeping.
    """
    return tuple(
        sorted(
            (slot, target, _canonical_marginal_token(part))
            for slot, target, part in token
        )
    )


def canonical_bucket(token, key_of):
    """Canonicalize a :meth:`SummaryStore.evidence_token
    <repro.core.summaries.SummaryStore.evidence_token>` for hashing.

    Bucket order is kept: the geometric-mean aggregation consumes votes
    in deposit order, so two stores whose buckets differ only in order
    are distinct inputs and must not collide.
    """
    return tuple(
        (
            canonical_site_key(site_key, key_of),
            _canonical_marginal_token(part),
        )
        for site_key, part in token
    )
