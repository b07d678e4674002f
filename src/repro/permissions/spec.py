"""The ``@Perm`` specification language (paper Figures 2 and 8).

A method specification consists of a *requires* and an *ensures* list of
permission clauses, each of the form::

    kind(target) [in STATE]

where ``kind`` is one of the five permission kinds, ``target`` is ``this``,
``result``, or a parameter name, and ``STATE`` defaults to ``ALIVE``.
Clauses are comma-separated.  Dynamic state test methods additionally
carry ``@TrueIndicates("STATE")`` / ``@FalseIndicates("STATE")``.

Both ``@Perm`` and ``@Spec`` annotation names are accepted — the paper
uses both spellings.
"""

import re

from repro.permissions import kinds
from repro.permissions.states import ALIVE

SPEC_ANNOTATION_NAMES = ("Perm", "Spec")

_CLAUSE_RE = re.compile(
    r"^\s*(?P<kind>unique|full|share|immutable|pure)\s*"
    r"\(\s*(?P<target>[A-Za-z_$][A-Za-z0-9_$]*|#\d+)\s*\)\s*"
    r"(?:in\s+(?P<state>[A-Za-z_][A-Za-z0-9_]*)\s*)?$"
)


class SpecParseError(ValueError):
    """Raised on malformed specification strings."""


class PermClause:
    """One ``kind(target) in STATE`` clause."""

    __slots__ = ("kind", "target", "state")

    def __init__(self, kind, target, state=ALIVE):
        if kind not in kinds.ALL_KINDS:
            raise SpecParseError("unknown permission kind %r" % kind)
        self.kind = kind
        self.target = target
        self.state = state

    def __eq__(self, other):
        return (
            isinstance(other, PermClause)
            and self.kind == other.kind
            and self.target == other.target
            and self.state == other.state
        )

    def __hash__(self):
        return hash((self.kind, self.target, self.state))

    def __repr__(self):
        return "PermClause(%s(%s) in %s)" % (self.kind, self.target, self.state)

    def format(self):
        if self.state == ALIVE:
            return "%s(%s)" % (self.kind, self.target)
        return "%s(%s) in %s" % (self.kind, self.target, self.state)


def parse_perm_clauses(text):
    """Parse a comma-separated clause list; empty/None yields []."""
    if text is None:
        return []
    text = text.strip()
    if not text:
        return []
    clauses = []
    for part in text.split(","):
        match = _CLAUSE_RE.match(part)
        if match is None:
            raise SpecParseError("malformed permission clause %r" % part.strip())
        state = match.group("state") or ALIVE
        clauses.append(
            PermClause(match.group("kind"), match.group("target"), state)
        )
    return clauses


def format_clauses(clauses):
    """Render clauses back to spec-string form."""
    return ", ".join(clause.format() for clause in clauses)


class MethodSpec:
    """The complete specification attached to one method."""

    __slots__ = ("requires", "ensures", "true_indicates", "false_indicates")

    def __init__(self, requires=None, ensures=None, true_indicates=None,
                 false_indicates=None):
        self.requires = list(requires or [])
        self.ensures = list(ensures or [])
        self.true_indicates = true_indicates
        self.false_indicates = false_indicates

    @property
    def is_empty(self):
        return not (
            self.requires
            or self.ensures
            or self.true_indicates
            or self.false_indicates
        )

    @property
    def is_state_test(self):
        return self.true_indicates is not None or self.false_indicates is not None

    def required_for(self, target):
        """Clauses in *requires* constraining ``target``."""
        return [clause for clause in self.requires if clause.target == target]

    def ensured_for(self, target):
        """Clauses in *ensures* constraining ``target``."""
        return [clause for clause in self.ensures if clause.target == target]

    def __eq__(self, other):
        return (
            isinstance(other, MethodSpec)
            and self.requires == other.requires
            and self.ensures == other.ensures
            and self.true_indicates == other.true_indicates
            and self.false_indicates == other.false_indicates
        )

    def __repr__(self):
        return "MethodSpec(requires=[%s], ensures=[%s])" % (
            format_clauses(self.requires),
            format_clauses(self.ensures),
        )

    def to_annotations(self):
        """Render as (annotation-name, arguments) pairs for the applier."""
        result = []
        arguments = {}
        if self.requires:
            arguments["requires"] = format_clauses(self.requires)
        if self.ensures:
            arguments["ensures"] = format_clauses(self.ensures)
        if arguments:
            result.append(("Perm", arguments))
        if self.true_indicates:
            result.append(("TrueIndicates", {"value": self.true_indicates}))
        if self.false_indicates:
            result.append(("FalseIndicates", {"value": self.false_indicates}))
        return result


def spec_of_method(method_decl):
    """Extract the :class:`MethodSpec` from a method's annotations.

    Returns an empty spec when the method is unannotated.
    """
    spec = MethodSpec()
    for annotation in method_decl.annotations:
        if annotation.name in SPEC_ANNOTATION_NAMES:
            spec.requires.extend(
                parse_perm_clauses(annotation.argument("requires"))
            )
            spec.ensures.extend(parse_perm_clauses(annotation.argument("ensures")))
        elif annotation.name == "TrueIndicates":
            spec.true_indicates = annotation.argument("value")
        elif annotation.name == "FalseIndicates":
            spec.false_indicates = annotation.argument("value")
    return spec


class SpecEnvironment:
    """Resolves the declared spec (if any) governing a method.

    The one spec-inheritance rule, shared by inference and the checker:
    an unannotated override inherits the first non-empty spec of a
    same-named supertype method, matching how PLURAL applies supertype
    specs at use sites.
    """

    def __init__(self, program):
        self.program = program
        self._cache = {}

    def spec_of(self, method_ref):
        if method_ref in self._cache:
            return self._cache[method_ref]
        spec = spec_of_method(method_ref.method_decl)
        if spec.is_empty:
            for super_decl in self.program.supertypes(method_ref.class_decl):
                for method in super_decl.find_method(method_ref.method_decl.name):
                    super_spec = spec_of_method(method)
                    if not super_spec.is_empty:
                        spec = super_spec
                        break
                if not spec.is_empty:
                    break
        self._cache[method_ref] = spec
        return spec

    def is_annotated(self, method_ref):
        """Annotated directly or through an overridden supertype method."""
        return not self.spec_of(method_ref).is_empty

    def is_directly_annotated(self, method_ref):
        """Annotated on the declaration itself (not inherited).

        Extraction keeps only *direct* annotations: for overrides that
        merely inherit a supertype spec ANEK still emits its own inferred
        spec — notably without ``@TrueIndicates`` (the paper: ANEK "does
        not attempt to infer" dynamic state test specs; the supertype
        spec takes precedence at use sites anyway).
        """
        return not spec_of_method(method_ref.method_decl).is_empty
