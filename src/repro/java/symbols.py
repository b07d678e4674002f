"""Symbol resolution: class table, method lookup, subtyping.

A :class:`Program` is the resolved whole-program view consumed by every
analysis: it indexes classes by simple name, resolves method calls through
the superclass/interface hierarchy, and answers subtype queries.

Well-known library types (``Iterator``, ``Collection``, ``Object``...) may be
declared in the program itself (the corpus ships annotated interface
sources, mirroring how the paper's experiments annotate the Iterator API).
"""

from repro.java import ast
from repro.java.errors import ResolutionError


class MethodRef:
    """A resolved method: declaring class + declaration node."""

    __slots__ = ("class_decl", "method_decl")

    def __init__(self, class_decl, method_decl):
        self.class_decl = class_decl
        self.method_decl = method_decl

    @property
    def qualified_name(self):
        return "%s.%s" % (self.class_decl.name, self.method_decl.name)

    def __repr__(self):
        return "MethodRef(%s)" % self.qualified_name

    def __eq__(self, other):
        return (
            isinstance(other, MethodRef)
            and self.class_decl is other.class_decl
            and self.method_decl is other.method_decl
        )

    def __hash__(self):
        return hash((id(self.class_decl), id(self.method_decl)))


def method_key(method_ref):
    """A stable, process-portable identifier for a method.

    ``qualified_name`` is ambiguous under overloading, and
    :class:`MethodRef` hashes by object identity, so neither survives a
    trip through ``pickle`` into a worker process.  The key encodes the
    declaring class plus the method's position in the class body, which
    is identical in every process that parsed the same sources.
    """
    decl = method_ref.class_decl
    for index, method in enumerate(decl.methods):
        if method is method_ref.method_decl:
            return "%s.%s#%d" % (decl.name, method.name, index)
    raise ValueError(
        "method %r not declared in class %r"
        % (method_ref.method_decl.name, decl.name)
    )


class Program:
    """The resolved program: class table plus lookup helpers."""

    def __init__(self, units):
        self.units = list(units)
        self.classes = {}
        for unit in self.units:
            for decl in unit.types:
                if decl.name in self.classes:
                    raise ResolutionError(
                        "duplicate type declaration %r" % decl.name, decl.line, decl.column
                    )
                self.classes[decl.name] = decl

    # -- class hierarchy -----------------------------------------------------

    def lookup_class(self, name):
        """Return the class declaration for a (possibly generic) type name."""
        base = name.split("<", 1)[0]
        base = base.rsplit(".", 1)[-1]  # tolerate qualified names
        return self.classes.get(base)

    def supertypes(self, class_decl):
        """Yield all declared supertypes of ``class_decl`` (transitively)."""
        seen = set()
        worklist = []
        if class_decl.superclass is not None:
            worklist.append(class_decl.superclass.name)
        worklist.extend(ref.name for ref in class_decl.interfaces)
        while worklist:
            name = worklist.pop()
            if name in seen:
                continue
            seen.add(name)
            decl = self.lookup_class(name)
            if decl is None:
                continue
            yield decl
            if decl.superclass is not None:
                worklist.append(decl.superclass.name)
            worklist.extend(ref.name for ref in decl.interfaces)

    def is_subtype(self, sub_name, super_name):
        """True if the type named ``sub_name`` is a subtype of ``super_name``."""
        sub_base = sub_name.split("<", 1)[0]
        super_base = super_name.split("<", 1)[0]
        if sub_base == super_base or super_base == "Object":
            return True
        sub = self.lookup_class(sub_base)
        if sub is None:
            return False
        return any(decl.name == super_base for decl in self.supertypes(sub))

    # -- method resolution -----------------------------------------------------

    def resolve_method(self, class_name, method_name, arg_count=None):
        """Resolve a call ``class_name.method_name`` through the hierarchy.

        Returns a :class:`MethodRef` or ``None`` when the receiver type or the
        method is unknown (e.g. calls into unmodelled library code).
        """
        decl = self.lookup_class(class_name)
        if decl is None:
            return None
        candidates = self._collect_candidates(decl, method_name)
        if not candidates:
            return None
        if arg_count is not None:
            matching = [
                ref for ref in candidates if len(ref.method_decl.params) == arg_count
            ]
            if matching:
                return matching[0]
        return candidates[0]

    def _collect_candidates(self, decl, method_name):
        candidates = [
            MethodRef(decl, method) for method in decl.find_method(method_name)
        ]
        for super_decl in self.supertypes(decl):
            candidates.extend(
                MethodRef(super_decl, method)
                for method in super_decl.find_method(method_name)
            )
        return candidates

    def resolve_constructor(self, class_name, arg_count=None):
        """Resolve ``new ClassName(...)`` to its constructor, if declared."""
        decl = self.lookup_class(class_name)
        if decl is None:
            return None
        ctors = [method for method in decl.methods if method.is_constructor]
        if not ctors:
            return None
        if arg_count is not None:
            matching = [ctor for ctor in ctors if len(ctor.params) == arg_count]
            if matching:
                return MethodRef(decl, matching[0])
        return MethodRef(decl, ctors[0])

    def lookup_field(self, class_name, field_name):
        """Resolve a field through the hierarchy; returns (ClassDecl, FieldDecl)."""
        decl = self.lookup_class(class_name)
        if decl is None:
            return None
        chain = [decl] + list(self.supertypes(decl))
        for owner in chain:
            for field in owner.fields:
                if field.name == field_name:
                    return (owner, field)
        return None

    # -- iteration helpers -------------------------------------------------------

    def all_methods(self):
        """Yield MethodRefs for every method declared in the program."""
        for decl in self.classes.values():
            for method in decl.methods:
                yield MethodRef(decl, method)

    def methods_with_bodies(self):
        """Yield MethodRefs for every concrete (non-abstract) method."""
        for ref in self.all_methods():
            if ref.method_decl.body is not None:
                yield ref

    def method_key_table(self):
        """Map :func:`method_key` strings to MethodRefs for all methods."""
        return {method_key(ref): ref for ref in self.all_methods()}


def resolve_program(units):
    """Build a :class:`Program` from parsed compilation units."""
    if isinstance(units, ast.CompilationUnit):
        units = [units]
    return Program(units)
