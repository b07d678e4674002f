"""Three-address intermediate representation and AST lowering.

Method bodies are lowered into a flat list of instructions over named
variables (parameters, locals, and ``t$N`` temporaries).  Nested
expressions such as ``r1.createColIter().next()`` become explicit
instruction sequences, giving every analysis a single evaluation order.

``for``/``foreach`` loops are desugared during lowering; notably a
foreach over a collection becomes the explicit
``iterator()/hasNext()/next()`` protocol, so it exercises the same
permission machinery as hand-written loops.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from repro.java import ast


# ---------------------------------------------------------------------------
# Right-hand sides (sources)
# ---------------------------------------------------------------------------


@dataclass
class Source:
    """Base class for instruction right-hand sides."""

    def variables(self):
        """Variable names read by this source."""
        return []


@dataclass
class UseVar(Source):
    name: str = ""

    def variables(self):
        return [self.name]

    def __str__(self):
        return self.name


@dataclass
class Const(Source):
    kind: str = ""  # int | string | char | bool | null
    value: object = None

    def __str__(self):
        return repr(self.value)


@dataclass
class NewObj(Source):
    class_name: str = ""
    args: List[str] = field(default_factory=list)

    def variables(self):
        return list(self.args)

    def __str__(self):
        return "new %s(%s)" % (self.class_name, ", ".join(self.args))


@dataclass
class Call(Source):
    """A method call. ``receiver`` is a variable name or None (static or
    implicit-this calls store the synthesized ``this`` receiver instead)."""

    receiver: Optional[str] = None
    method_name: str = ""
    args: List[str] = field(default_factory=list)
    static_class: Optional[str] = None  # receiver's static class, if known
    ast_node: object = field(default=None, compare=False, repr=False)

    def variables(self):
        names = list(self.args)
        if self.receiver is not None:
            names.append(self.receiver)
        return names

    def __str__(self):
        prefix = "%s." % self.receiver if self.receiver else ""
        return "%s%s(%s)" % (prefix, self.method_name, ", ".join(self.args))


@dataclass
class FieldLoad(Source):
    receiver: Optional[str] = None  # None for unqualified static-ish reads
    field_name: str = ""

    def variables(self):
        return [self.receiver] if self.receiver is not None else []

    def __str__(self):
        return "%s.%s" % (self.receiver or "<implicit>", self.field_name)


@dataclass
class BinOp(Source):
    op: str = ""
    left: str = ""
    right: str = ""

    def variables(self):
        return [self.left, self.right]

    def __str__(self):
        return "%s %s %s" % (self.left, self.op, self.right)


@dataclass
class UnOp(Source):
    op: str = ""
    operand: str = ""

    def variables(self):
        return [self.operand]

    def __str__(self):
        return "%s%s" % (self.op, self.operand)


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@dataclass
class Instr:
    line: int = 0

    def defined(self):
        """The variable defined by this instruction, if any."""
        return None

    def used(self):
        """Variable names read by this instruction."""
        return []


@dataclass
class Assign(Instr):
    target: str = ""
    source: Source = None

    def defined(self):
        return self.target

    def used(self):
        return self.source.variables()

    def __str__(self):
        return "%s = %s" % (self.target, self.source)


@dataclass
class FieldStore(Instr):
    receiver: Optional[str] = None
    field_name: str = ""
    value: str = ""

    def used(self):
        names = [self.value]
        if self.receiver is not None:
            names.append(self.receiver)
        return names

    def __str__(self):
        return "%s.%s = %s" % (self.receiver or "<implicit>", self.field_name, self.value)


@dataclass
class ReturnInstr(Instr):
    value: Optional[str] = None

    def used(self):
        return [self.value] if self.value is not None else []

    def __str__(self):
        return "return %s" % (self.value or "")


@dataclass
class AssertInstr(Instr):
    condition: str = ""

    def used(self):
        return [self.condition]

    def __str__(self):
        return "assert %s" % self.condition


@dataclass
class SyncEnter(Instr):
    lock: str = ""

    def used(self):
        return [self.lock]

    def __str__(self):
        return "syncenter %s" % self.lock


@dataclass
class SyncExit(Instr):
    lock: str = ""

    def used(self):
        return [self.lock]

    def __str__(self):
        return "syncexit %s" % self.lock


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


class LoweredMethod:
    """The result of lowering: a structured tree of basic lowering events.

    Lowering produces a small structured program (:class:`LoweredBlock`)
    rather than a flat instruction list so that the CFG builder can insert
    joins precisely.  Leaf elements are :class:`Instr`; control elements are
    ``("if", cond_var, then_block, else_block)``-style tuples created via
    the classes below.
    """

    def __init__(self, body):
        self.body = body


class LoweredBlock:
    def __init__(self, items=None):
        self.items = items if items is not None else []

    def append(self, item):
        self.items.append(item)


class LoweredIf:
    def __init__(self, cond_var, then_block, else_block):
        self.cond_var = cond_var
        self.then_block = then_block
        self.else_block = else_block


class LoweredLoop:
    """A loop with a pre-lowered header.

    ``header`` re-evaluates the condition (instructions), ``cond_var`` holds
    its result, ``body`` is the loop body, ``update`` the for-update block.
    ``post_test`` marks do-while loops (body runs before the first test).
    """

    def __init__(self, header, cond_var, body, update=None, post_test=False):
        self.header = header
        self.cond_var = cond_var
        self.body = body
        self.update = update if update is not None else LoweredBlock()
        self.post_test = post_test


class LoweredBreak:
    pass


class LoweredContinue:
    pass


class Lowerer(ast.NodeVisitor):
    """Lowers one method body into a :class:`LoweredMethod`."""

    def __init__(self, program, class_decl, method_decl):
        from repro.java.types import ExprTyper

        self.program = program
        self.class_decl = class_decl
        self.method_decl = method_decl
        self.typer = ExprTyper(program, class_decl, method_decl)
        self.temp_count = 0
        self.block_stack = []
        # Innermost break-able construct: "loop" or "switch".  A break
        # inside a (desugared) switch ends the case arm, which the
        # if-chain encoding already does — so it lowers to nothing.
        self.break_stack = []

    # -- helpers --------------------------------------------------------------

    def _fresh_temp(self):
        name = "t$%d" % self.temp_count
        self.temp_count += 1
        return name

    def _emit(self, instr):
        self.block_stack[-1].append(instr)

    def _lower_into(self, block, fn):
        self.block_stack.append(block)
        try:
            fn()
        finally:
            self.block_stack.pop()
        return block

    def _lower_body_in(self, block, fn, kind="loop"):
        """Lower a loop/switch body, tracking what ``break`` targets."""
        self.break_stack.append(kind)
        try:
            self._lower_into(block, fn)
        finally:
            self.break_stack.pop()
        return block

    # -- entry point ------------------------------------------------------------

    def lower(self):
        body = LoweredBlock()
        self.block_stack.append(body)
        try:
            if self.method_decl.body is not None:
                for stmt in self.method_decl.body.statements:
                    self.lower_stmt(stmt)
        finally:
            self.block_stack.pop()
        return LoweredMethod(body)

    # -- statements ------------------------------------------------------------

    def lower_stmt(self, stmt):
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self.lower_stmt(inner)
        elif isinstance(stmt, ast.LocalVarDecl):
            if stmt.initializer is not None:
                value = self.lower_expr(stmt.initializer)
                self._emit(Assign(target=stmt.name, source=value, line=stmt.line))
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr_for_effect(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            cond_var = self._as_var(self.lower_expr(stmt.condition), stmt.line)
            then_block = LoweredBlock()
            self._lower_into(then_block, lambda: self.lower_stmt(stmt.then_branch))
            else_block = LoweredBlock()
            if stmt.else_branch is not None:
                self._lower_into(else_block, lambda: self.lower_stmt(stmt.else_branch))
            self._emit(LoweredIf(cond_var, then_block, else_block))
        elif isinstance(stmt, ast.WhileStmt):
            header = LoweredBlock()
            cond_var_box = []

            def lower_header():
                cond_var_box.append(
                    self._as_var(self.lower_expr(stmt.condition), stmt.line)
                )

            self._lower_into(header, lower_header)
            body = LoweredBlock()
            self._lower_body_in(body, lambda: self.lower_stmt(stmt.body))
            self._emit(LoweredLoop(header, cond_var_box[0], body))
        elif isinstance(stmt, ast.DoWhileStmt):
            header = LoweredBlock()
            cond_var_box = []

            def lower_header():
                cond_var_box.append(
                    self._as_var(self.lower_expr(stmt.condition), stmt.line)
                )

            self._lower_into(header, lower_header)
            body = LoweredBlock()
            self._lower_body_in(body, lambda: self.lower_stmt(stmt.body))
            self._emit(LoweredLoop(header, cond_var_box[0], body, post_test=True))
        elif isinstance(stmt, ast.ForStmt):
            for init in stmt.init:
                self.lower_stmt(init)
            header = LoweredBlock()
            cond_var_box = []

            def lower_header():
                if stmt.condition is not None:
                    cond_var_box.append(
                        self._as_var(self.lower_expr(stmt.condition), stmt.line)
                    )
                else:
                    temp = self._fresh_temp()
                    self._emit(
                        Assign(
                            target=temp,
                            source=Const(kind="bool", value=True),
                            line=stmt.line,
                        )
                    )
                    cond_var_box.append(temp)

            self._lower_into(header, lower_header)
            body = LoweredBlock()
            self._lower_body_in(body, lambda: self.lower_stmt(stmt.body))
            update = LoweredBlock()

            def lower_update():
                for expr in stmt.update:
                    self.lower_expr_for_effect(expr)

            self._lower_into(update, lower_update)
            self._emit(LoweredLoop(header, cond_var_box[0], body, update=update))
        elif isinstance(stmt, ast.ForEachStmt):
            self._lower_foreach(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            value = None
            if stmt.value is not None:
                value = self._as_var(self.lower_expr(stmt.value), stmt.line)
            self._emit(ReturnInstr(value=value, line=stmt.line))
        elif isinstance(stmt, ast.AssertStmt):
            cond = self._as_var(self.lower_expr(stmt.condition), stmt.line)
            self._emit(AssertInstr(condition=cond, line=stmt.line))
        elif isinstance(stmt, ast.SynchronizedStmt):
            lock = self._as_var(self.lower_expr(stmt.lock), stmt.line)
            self._emit(SyncEnter(lock=lock, line=stmt.line))
            self.lower_stmt(stmt.body)
            self._emit(SyncExit(lock=lock, line=stmt.line))
        elif isinstance(stmt, ast.ThrowStmt):
            self._as_var(self.lower_expr(stmt.value), stmt.line)
            self._emit(ReturnInstr(value=None, line=stmt.line))  # abrupt exit
        elif isinstance(stmt, ast.SwitchStmt):
            self._lower_switch(stmt)
        elif isinstance(stmt, ast.BreakStmt):
            if not self.break_stack or self.break_stack[-1] == "loop":
                self._emit(LoweredBreak())
            # break out of a switch arm: the if-chain desugar needs nothing.
        elif isinstance(stmt, ast.ContinueStmt):
            self._emit(LoweredContinue())
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        else:
            raise TypeError("cannot lower statement %r" % type(stmt).__name__)

    def _lower_foreach(self, stmt):
        """Desugar foreach into the iterator()/hasNext()/next() protocol."""
        iterable_var = self._as_var(self.lower_expr(stmt.iterable), stmt.line)
        iter_var = self._fresh_temp()
        iterable_class = None
        iterable_type = self.typer.type_of(stmt.iterable)
        if iterable_type is not None:
            iterable_class = iterable_type.name
        self._emit(
            Assign(
                target=iter_var,
                source=Call(
                    receiver=iterable_var,
                    method_name="iterator",
                    args=[],
                    static_class=iterable_class,
                ),
                line=stmt.line,
            )
        )
        header = LoweredBlock()
        cond_var_box = []

        def lower_header():
            cond = self._fresh_temp()
            self._emit(
                Assign(
                    target=cond,
                    source=Call(
                        receiver=iter_var,
                        method_name="hasNext",
                        args=[],
                        static_class="Iterator",
                    ),
                    line=stmt.line,
                )
            )
            cond_var_box.append(cond)

        self._lower_into(header, lower_header)
        body = LoweredBlock()

        def lower_body():
            self._emit(
                Assign(
                    target=stmt.var_name,
                    source=Call(
                        receiver=iter_var,
                        method_name="next",
                        args=[],
                        static_class="Iterator",
                    ),
                    line=stmt.line,
                )
            )
            self.lower_stmt(stmt.body)

        self._lower_body_in(body, lower_body)
        self._emit(LoweredLoop(header, cond_var_box[0], body))

    def _lower_switch(self, stmt):
        """Desugar switch into an equality-guarded if-else chain.

        ``break`` ends a case arm (the chain encoding needs nothing for
        it); fallthrough between arms is not modeled — each arm is
        treated as self-contained, the overwhelmingly common idiom.
        """
        selector = self._as_var(self.lower_expr(stmt.selector), stmt.line)
        self._lower_switch_cases(stmt, selector, list(stmt.cases))

    def _lower_switch_cases(self, stmt, selector, cases):
        if not cases:
            return
        case = cases[0]
        if case.is_default:
            self.break_stack.append("switch")
            try:
                for inner in case.body:
                    self.lower_stmt(inner)
            finally:
                self.break_stack.pop()
            return
        cond = None
        for label in case.labels:
            label_var = self._as_var(self.lower_expr(label), stmt.line)
            test = self._fresh_temp()
            self._emit(
                Assign(
                    target=test,
                    source=BinOp(op="==", left=selector, right=label_var),
                    line=stmt.line,
                )
            )
            if cond is None:
                cond = test
            else:
                combined = self._fresh_temp()
                self._emit(
                    Assign(
                        target=combined,
                        source=BinOp(op="||", left=cond, right=test),
                        line=stmt.line,
                    )
                )
                cond = combined
        then_block = LoweredBlock()

        def lower_arm():
            for inner in case.body:
                self.lower_stmt(inner)

        self._lower_body_in(then_block, lower_arm, kind="switch")
        else_block = LoweredBlock()
        self._lower_into(
            else_block,
            lambda: self._lower_switch_cases(stmt, selector, cases[1:]),
        )
        self._emit(LoweredIf(cond, then_block, else_block))

    # -- expressions -------------------------------------------------------------

    def lower_expr_for_effect(self, expr):
        """Lower an expression evaluated for side effects only."""
        if isinstance(expr, ast.Assign):
            self._lower_assign(expr)
            return
        result = self.lower_expr(expr)
        if isinstance(result, (Call, NewObj, FieldLoad)):
            self._emit(Assign(target=self._fresh_temp(), source=result, line=expr.line))

    def lower_expr(self, expr):
        """Lower an expression; returns a :class:`Source` for its value."""
        if isinstance(expr, ast.Literal):
            return Const(kind=expr.kind, value=expr.value)
        if isinstance(expr, ast.VarRef):
            if self.typer.env.lookup(expr.name) is not None or any(
                param.name == expr.name for param in self.method_decl.params
            ):
                return UseVar(name=expr.name)
            # Unqualified field read (implicit this).
            return self._emit_load(
                FieldLoad(receiver="this", field_name=expr.name), expr.line
            )
        if isinstance(expr, ast.ThisRef):
            return UseVar(name="this")
        if isinstance(expr, ast.FieldAccess):
            receiver = None
            if expr.receiver is not None:
                receiver = self._as_var(self.lower_expr(expr.receiver), expr.line)
            else:
                receiver = "this"
            return self._emit_load(
                FieldLoad(receiver=receiver, field_name=expr.name), expr.line
            )
        if isinstance(expr, ast.MethodCall):
            return self._lower_call(expr)
        if isinstance(expr, ast.NewObject):
            args = [
                self._as_var(self.lower_expr(arg), expr.line) for arg in expr.arguments
            ]
            temp = self._fresh_temp()
            self._emit(
                Assign(
                    target=temp,
                    source=NewObj(class_name=expr.type.name, args=args),
                    line=expr.line,
                )
            )
            return UseVar(name=temp)
        if isinstance(expr, ast.Assign):
            return self._lower_assign(expr)
        if isinstance(expr, ast.Binary):
            left = self._as_var(self.lower_expr(expr.left), expr.line)
            right = self._as_var(self.lower_expr(expr.right), expr.line)
            temp = self._fresh_temp()
            self._emit(
                Assign(
                    target=temp,
                    source=BinOp(op=expr.op, left=left, right=right),
                    line=expr.line,
                )
            )
            return UseVar(name=temp)
        if isinstance(expr, ast.Unary):
            if expr.op in ("++", "--"):
                return self._lower_increment(expr)
            operand = self._as_var(self.lower_expr(expr.operand), expr.line)
            temp = self._fresh_temp()
            self._emit(
                Assign(
                    target=temp,
                    source=UnOp(op=expr.op, operand=operand),
                    line=expr.line,
                )
            )
            return UseVar(name=temp)
        if isinstance(expr, ast.Cast):
            return self.lower_expr(expr.expr)
        if isinstance(expr, ast.InstanceOf):
            operand = self._as_var(self.lower_expr(expr.expr), expr.line)
            temp = self._fresh_temp()
            self._emit(
                Assign(
                    target=temp,
                    source=UnOp(op="instanceof", operand=operand),
                    line=expr.line,
                )
            )
            return UseVar(name=temp)
        if isinstance(expr, ast.Conditional):
            # Desugar to if/else over a fresh temp.
            cond = self._as_var(self.lower_expr(expr.condition), expr.line)
            temp = self._fresh_temp()
            then_block = LoweredBlock()

            def lower_then():
                value = self._as_var(self.lower_expr(expr.then_expr), expr.line)
                self._emit(
                    Assign(target=temp, source=UseVar(name=value), line=expr.line)
                )

            self._lower_into(then_block, lower_then)
            else_block = LoweredBlock()

            def lower_else():
                value = self._as_var(self.lower_expr(expr.else_expr), expr.line)
                self._emit(
                    Assign(target=temp, source=UseVar(name=value), line=expr.line)
                )

            self._lower_into(else_block, lower_else)
            self._emit(LoweredIf(cond, then_block, else_block))
            return UseVar(name=temp)
        if isinstance(expr, ast.ArrayAccess):
            array = self._as_var(self.lower_expr(expr.array), expr.line)
            self._as_var(self.lower_expr(expr.index), expr.line)
            temp = self._fresh_temp()
            self._emit(
                Assign(
                    target=temp,
                    source=UnOp(op="[]", operand=array),
                    line=expr.line,
                )
            )
            return UseVar(name=temp)
        raise TypeError("cannot lower expression %r" % type(expr).__name__)

    def _lower_increment(self, expr):
        """Desugar ``x++``/``--x`` into an explicit read-modify-write.

        Returns the old value for postfix uses and the new value for
        prefix uses, matching Java semantics.
        """
        op = expr.op[0]  # "+" or "-"
        one = self._fresh_temp()
        self._emit(
            Assign(
                target=one, source=Const(kind="int", value=1), line=expr.line
            )
        )
        current = self._as_var(self.lower_expr(expr.operand), expr.line)
        # Snapshot the old value: for locals `current` is the variable
        # itself, which the write-back below would otherwise clobber.
        old_value = self._fresh_temp()
        self._emit(
            Assign(
                target=old_value, source=UseVar(name=current), line=expr.line
            )
        )
        new_value = self._fresh_temp()
        self._emit(
            Assign(
                target=new_value,
                source=BinOp(op=op, left=old_value, right=one),
                line=expr.line,
            )
        )
        # Write back to the target (local or field).
        target = expr.operand
        if isinstance(target, ast.VarRef) and (
            self.typer.env.lookup(target.name) is not None
            or any(p.name == target.name for p in self.method_decl.params)
        ):
            self._emit(
                Assign(
                    target=target.name,
                    source=UseVar(name=new_value),
                    line=expr.line,
                )
            )
        elif isinstance(target, (ast.VarRef, ast.FieldAccess)):
            if isinstance(target, ast.FieldAccess) and target.receiver is not None:
                receiver = self._as_var(
                    self.lower_expr(target.receiver), expr.line
                )
            else:
                receiver = "this"
            self._emit(
                FieldStore(
                    receiver=receiver,
                    field_name=target.name,
                    value=new_value,
                    line=expr.line,
                )
            )
        return UseVar(name=new_value if expr.prefix else old_value)

    def _lower_call(self, call):
        receiver_var = None
        if call.receiver is not None:
            receiver_var = self._as_var(self.lower_expr(call.receiver), call.line)
        else:
            receiver_var = "this"
        args = [self._as_var(self.lower_expr(arg), call.line) for arg in call.arguments]
        static_class = self.typer.receiver_class_name(call)
        temp = self._fresh_temp()
        self._emit(
            Assign(
                target=temp,
                source=Call(
                    receiver=receiver_var,
                    method_name=call.name,
                    args=args,
                    static_class=static_class,
                    ast_node=call,
                ),
                line=call.line,
            )
        )
        return UseVar(name=temp)

    def _lower_assign(self, expr):
        if isinstance(expr.target, ast.VarRef) and self.typer.env.lookup(
            expr.target.name
        ) is not None:
            value = self.lower_expr(expr.value)
            if expr.op != "=":
                value_var = self._as_var(value, expr.line)
                value = BinOp(
                    op=expr.op.rstrip("="), left=expr.target.name, right=value_var
                )
            self._emit(Assign(target=expr.target.name, source=value, line=expr.line))
            return UseVar(name=expr.target.name)
        # Field store (qualified, or unqualified name that is a field).
        if isinstance(expr.target, ast.FieldAccess) or isinstance(
            expr.target, ast.VarRef
        ):
            if isinstance(expr.target, ast.FieldAccess):
                if expr.target.receiver is not None:
                    receiver = self._as_var(
                        self.lower_expr(expr.target.receiver), expr.line
                    )
                else:
                    receiver = "this"
                field_name = expr.target.name
            else:
                receiver = "this"
                field_name = expr.target.name
            value_var = self._as_var(self.lower_expr(expr.value), expr.line)
            if expr.op != "=":
                # Compound store: load the field, apply the operator.
                loaded = self._fresh_temp()
                self._emit(
                    Assign(
                        target=loaded,
                        source=FieldLoad(
                            receiver=receiver, field_name=field_name
                        ),
                        line=expr.line,
                    )
                )
                combined = self._fresh_temp()
                self._emit(
                    Assign(
                        target=combined,
                        source=BinOp(
                            op=expr.op.rstrip("="),
                            left=loaded,
                            right=value_var,
                        ),
                        line=expr.line,
                    )
                )
                value_var = combined
            self._emit(
                FieldStore(
                    receiver=receiver,
                    field_name=field_name,
                    value=value_var,
                    line=expr.line,
                )
            )
            return UseVar(name=value_var)
        if isinstance(expr.target, ast.ArrayAccess):
            self._as_var(self.lower_expr(expr.target.array), expr.line)
            self._as_var(self.lower_expr(expr.target.index), expr.line)
            value_var = self._as_var(self.lower_expr(expr.value), expr.line)
            return UseVar(name=value_var)
        raise TypeError(
            "cannot lower assignment target %r" % type(expr.target).__name__
        )

    def _emit_load(self, load, line):
        temp = self._fresh_temp()
        self._emit(Assign(target=temp, source=load, line=line))
        return UseVar(name=temp)

    def _as_var(self, source, line):
        """Materialize a source into a variable name."""
        if isinstance(source, UseVar):
            return source.name
        temp = self._fresh_temp()
        self._emit(Assign(target=temp, source=source, line=line))
        return temp


def lower_method(program, class_decl, method_decl):
    """Lower one method; returns a :class:`LoweredMethod`."""
    return Lowerer(program, class_decl, method_decl).lower()
