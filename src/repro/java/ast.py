"""AST node definitions for the Java subset.

Nodes are plain dataclasses carrying 1-based source positions.  A generic
``children()`` iterator supports tree walks, and :class:`NodeVisitor`
implements double-dispatch visiting in the classic style.
"""

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class Node:
    """Base class for all AST nodes."""

    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    def children(self):
        """Yield direct child nodes (depth-one)."""
        for value in self.__dict__.values():
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def walk(self):
        """Yield this node and all descendants in pre-order."""
        yield self
        for child in self.children():
            for node in child.walk():
                yield node


# ---------------------------------------------------------------------------
# Types and annotations
# ---------------------------------------------------------------------------


@dataclass
class TypeRef(Node):
    """A (possibly generic) type reference such as ``Iterator<Integer>``."""

    name: str = ""
    type_args: List["TypeRef"] = field(default_factory=list)
    dimensions: int = 0

    def __str__(self):
        text = self.name
        if self.type_args:
            text += "<%s>" % ", ".join(str(arg) for arg in self.type_args)
        text += "[]" * self.dimensions
        return text

    @property
    def is_primitive(self):
        from repro.java.tokens import PRIMITIVE_TYPES

        return self.name in PRIMITIVE_TYPES and self.dimensions == 0


@dataclass
class Annotation(Node):
    """An annotation such as ``@Perm(requires="...", ensures="...")``.

    ``arguments`` maps element names to literal string values; a single
    unnamed argument is stored under the key ``"value"``.
    """

    name: str = ""
    arguments: dict = field(default_factory=dict)

    def argument(self, key, default=None):
        return self.arguments.get(key, default)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class CompilationUnit(Node):
    package: Optional[str] = None
    imports: List[str] = field(default_factory=list)
    types: List["ClassDecl"] = field(default_factory=list)
    #: The content digests the analysis cache stored with the unit when
    #: it was parsed (:func:`repro.cache.fingerprints.unit_digests`);
    #: None for a unit parsed outside the cache or edited in place since.
    digests: Optional[dict] = field(default=None, repr=False, compare=False)


@dataclass
class ClassDecl(Node):
    name: str = ""
    is_interface: bool = False
    modifiers: List[str] = field(default_factory=list)
    annotations: List[Annotation] = field(default_factory=list)
    type_params: List[str] = field(default_factory=list)
    superclass: Optional[TypeRef] = None
    interfaces: List[TypeRef] = field(default_factory=list)
    fields: List["FieldDecl"] = field(default_factory=list)
    methods: List["MethodDecl"] = field(default_factory=list)

    def find_method(self, name):
        """Return all methods declared here with the given name."""
        return [method for method in self.methods if method.name == name]


@dataclass
class FieldDecl(Node):
    name: str = ""
    type: TypeRef = None
    modifiers: List[str] = field(default_factory=list)
    annotations: List[Annotation] = field(default_factory=list)
    initializer: Optional["Expr"] = None


@dataclass
class Param(Node):
    name: str = ""
    type: TypeRef = None
    annotations: List[Annotation] = field(default_factory=list)


@dataclass
class MethodDecl(Node):
    name: str = ""
    return_type: Optional[TypeRef] = None  # None for constructors
    params: List[Param] = field(default_factory=list)
    modifiers: List[str] = field(default_factory=list)
    annotations: List[Annotation] = field(default_factory=list)
    type_params: List[str] = field(default_factory=list)
    throws: List[TypeRef] = field(default_factory=list)
    body: Optional["Block"] = None
    is_constructor: bool = False

    @property
    def is_static(self):
        return "static" in self.modifiers

    @property
    def is_abstract(self):
        return self.body is None

    def annotation(self, name):
        """Return the first annotation with the given simple name, or None."""
        for ann in self.annotations:
            if ann.name == name:
                return ann
        return None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)


@dataclass
class LocalVarDecl(Stmt):
    type: TypeRef = None
    name: str = ""
    initializer: Optional["Expr"] = None


@dataclass
class ExprStmt(Stmt):
    expr: "Expr" = None


@dataclass
class IfStmt(Stmt):
    condition: "Expr" = None
    then_branch: Stmt = None
    else_branch: Optional[Stmt] = None


@dataclass
class WhileStmt(Stmt):
    condition: "Expr" = None
    body: Stmt = None


@dataclass
class DoWhileStmt(Stmt):
    body: Stmt = None
    condition: "Expr" = None


@dataclass
class ForStmt(Stmt):
    init: List[Stmt] = field(default_factory=list)
    condition: Optional["Expr"] = None
    update: List["Expr"] = field(default_factory=list)
    body: Stmt = None


@dataclass
class ForEachStmt(Stmt):
    var_type: TypeRef = None
    var_name: str = ""
    iterable: "Expr" = None
    body: Stmt = None


@dataclass
class SwitchCase(Node):
    """One arm of a switch: ``labels`` is empty for ``default``."""

    labels: List["Expr"] = field(default_factory=list)
    body: List["Stmt"] = field(default_factory=list)

    @property
    def is_default(self):
        return not self.labels


@dataclass
class SwitchStmt(Stmt):
    selector: "Expr" = None
    cases: List[SwitchCase] = field(default_factory=list)


@dataclass
class ReturnStmt(Stmt):
    value: Optional["Expr"] = None


@dataclass
class AssertStmt(Stmt):
    condition: "Expr" = None
    message: Optional["Expr"] = None


@dataclass
class SynchronizedStmt(Stmt):
    lock: "Expr" = None
    body: Block = None


@dataclass
class ThrowStmt(Stmt):
    value: "Expr" = None


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class EmptyStmt(Stmt):
    pass


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class Literal(Expr):
    kind: str = ""  # "int" | "string" | "char" | "bool" | "null"
    value: object = None


@dataclass
class VarRef(Expr):
    name: str = ""


@dataclass
class ThisRef(Expr):
    pass


@dataclass
class FieldAccess(Expr):
    receiver: Expr = None  # None means unqualified (implicit this or static)
    name: str = ""


@dataclass
class MethodCall(Expr):
    receiver: Optional[Expr] = None  # None means implicit this / static
    name: str = ""
    arguments: List[Expr] = field(default_factory=list)


@dataclass
class NewObject(Expr):
    type: TypeRef = None
    arguments: List[Expr] = field(default_factory=list)


@dataclass
class Assign(Expr):
    target: Expr = None
    op: str = "="
    value: Expr = None


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Expr = None
    prefix: bool = True


@dataclass
class Cast(Expr):
    type: TypeRef = None
    expr: Expr = None


@dataclass
class InstanceOf(Expr):
    expr: Expr = None
    type: TypeRef = None


@dataclass
class Conditional(Expr):
    condition: Expr = None
    then_expr: Expr = None
    else_expr: Expr = None


@dataclass
class ArrayAccess(Expr):
    array: Expr = None
    index: Expr = None


# ---------------------------------------------------------------------------
# Visitor
# ---------------------------------------------------------------------------


class NodeVisitor:
    """Classic double-dispatch visitor.

    ``visit`` dispatches to ``visit_<ClassName>`` if defined, otherwise to
    :meth:`generic_visit`, which recurses into children.
    """

    def visit(self, node):
        method = getattr(self, "visit_%s" % type(node).__name__, None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node):
        for child in node.children():
            self.visit(child)
        return None


def find_nodes(root, node_type):
    """Return all descendants of ``root`` (inclusive) of the given type."""
    return [node for node in root.walk() if isinstance(node, node_type)]
