"""Recursive-descent parser for the Java subset.

The grammar covers what the paper's programs need: top-level classes and
interfaces, annotations, generics-lite type references, fields, methods and
constructors, and the usual statement/expression forms.  Local variable
declarations are disambiguated from expressions by speculative parsing
(try type+identifier, rewind on failure), the standard trick for grammars
where ``A<B> x`` and ``a < b`` share a prefix.
"""

from repro.java import ast
from repro.java.errors import JavaSyntaxError
from repro.java.lexer import tokenize
from repro.resilience.limits import ResourceLimitError, recursion_guard
from repro.java.tokens import (
    BOOL_LIT,
    CHAR_LIT,
    EOF,
    IDENT,
    INT_LIT,
    KEYWORD,
    MODIFIER_KEYWORDS,
    NULL_LIT,
    PRIMITIVE_TYPES,
    PUNCT,
    STRING_LIT,
)

#: Literal token kinds other than INT_LIT, and their ``Literal.kind``.
_LITERAL_KINDS = {STRING_LIT: "string", CHAR_LIT: "char", BOOL_LIT: "bool", NULL_LIT: "null"}

_ASSIGN_OPS = frozenset(["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="])

#: Binary operators, one level per group, loosest first; ``instanceof``
#: binds at the relational level.
_BINARY_LEVELS = [
    "||", "&&", "|", "^", "&", "== !=", "< > <= >= instanceof", "<< >> >>>", "+ -", "* / %"
]

#: Binary operator -> its level's precedence, 1 (loosest) to 10.
_BINARY_PRECEDENCE = {
    op: precedence
    for precedence, ops in enumerate(_BINARY_LEVELS, start=1)
    for op in ops.split()
}


class Parser:
    """Parses a token stream into a :class:`repro.java.ast.CompilationUnit`.

    When ``limits`` (a :class:`repro.resilience.limits.ResourceLimits`)
    is given, statement/expression nesting depth is counted explicitly
    and a breach raises a typed ``ResourceLimitError`` — deterministic
    and well before CPython's own recursion limit, so a nesting bomb is
    a quarantinable parse failure rather than a ``RecursionError``.
    """

    def __init__(self, tokens, limits=None):
        self.tokens = tokens
        self.pos = 0
        #: Indices of the '>' tokens ``_close_type_args`` pushed into
        #: ``tokens``, in push order, so a rewind can take them out.
        self._pushed = []
        self.depth = 0
        self._max_depth = limits.cap("max_parse_depth") if limits else 0

    def _enter(self):
        self.depth += 1
        if self._max_depth and self.depth > self._max_depth:
            token = self._peek()
            raise ResourceLimitError(
                "parse-depth",
                self.depth,
                self._max_depth,
                "line %d" % token.line,
            )

    # -- token stream helpers ----------------------------------------------

    # The token list ends with EOF and ``pos`` never passes it, so
    # ``self.tokens[self.pos]`` is always the current token; a matched
    # punctuator or keyword is never EOF, so accepting it is ``pos += 1``.

    def _peek(self, offset=0):
        index = self.pos + offset
        tokens = self.tokens
        return tokens[index] if index < len(tokens) else tokens[-1]

    def _advance(self):
        token = self.tokens[self.pos]
        if token.kind != EOF:
            self.pos += 1
        return token

    def _at_punct(self, value):
        return self.tokens[self.pos].is_punct(value)

    def _at_keyword(self, value):
        return self.tokens[self.pos].is_keyword(value)

    def _accept_punct(self, value):
        if self.tokens[self.pos].is_punct(value):
            self.pos += 1
            return True
        return False

    def _accept_keyword(self, value):
        if self.tokens[self.pos].is_keyword(value):
            self.pos += 1
            return True
        return False

    def _expect_punct(self, value):
        token = self.tokens[self.pos]
        if not token.is_punct(value):
            self._error("expected %r but found %r" % (value, token.value))
        self.pos += 1
        return token

    def _expect_keyword(self, value):
        token = self.tokens[self.pos]
        if not token.is_keyword(value):
            self._error("expected keyword %r but found %r" % (value, token.value))
        self.pos += 1
        return token

    def _expect_ident(self):
        token = self.tokens[self.pos]
        if token.kind != IDENT:
            self._error("expected identifier but found %r" % (token.value,))
        self.pos += 1
        return token

    def _error(self, message):
        token = self.tokens[self.pos]
        raise JavaSyntaxError(message, token.line, token.column)

    # A speculative parse takes a mark and rewinds to it on failure.  A
    # rewind also takes out every '>' pushed since the mark: the probe
    # may have read ``a < b >> 2`` as type arguments, and the parse
    # that follows must see the ``>>`` it was given.

    def _mark(self):
        return self.pos, len(self._pushed)

    def _rewind(self, mark):
        self.pos, pushed = mark
        while len(self._pushed) > pushed:
            del self.tokens[self._pushed.pop()]

    def _pos_of(self, token):
        return {"line": token.line, "column": token.column}

    # -- compilation unit ----------------------------------------------------

    def parse_compilation_unit(self):
        unit = ast.CompilationUnit()
        if self._at_keyword("package"):
            self._advance()
            unit.package = self._parse_qualified_name()
            self._expect_punct(";")
        while self._at_keyword("import"):
            self._advance()
            name = self._parse_qualified_name()
            if self._accept_punct("."):
                self._expect_punct("*")
                name += ".*"
            self._expect_punct(";")
            unit.imports.append(name)
        while self._peek().kind != EOF:
            unit.types.append(self.parse_type_declaration())
        return unit

    def _parse_qualified_name(self):
        parts = [self._expect_ident().value]
        while self._at_punct(".") and self._peek(1).kind == IDENT:
            self._advance()
            parts.append(self._expect_ident().value)
        return ".".join(parts)

    # -- type declarations ---------------------------------------------------

    def parse_type_declaration(self):
        annotations = self._parse_annotations()
        modifiers = self._parse_modifiers()
        if self._at_keyword("class"):
            return self._parse_class_body_decl(annotations, modifiers, is_interface=False)
        if self._at_keyword("interface"):
            return self._parse_class_body_decl(annotations, modifiers, is_interface=True)
        self._error("expected class or interface declaration")

    def _parse_class_body_decl(self, annotations, modifiers, is_interface):
        start = self._advance()  # 'class' or 'interface'
        name = self._expect_ident().value
        decl = ast.ClassDecl(
            name=name,
            is_interface=is_interface,
            modifiers=modifiers,
            annotations=annotations,
            **self._pos_of(start),
        )
        decl.type_params = self._parse_type_params()
        if self._accept_keyword("extends"):
            first = self._parse_type_ref()
            if is_interface:
                decl.interfaces.append(first)
                while self._accept_punct(","):
                    decl.interfaces.append(self._parse_type_ref())
            else:
                decl.superclass = first
        if self._accept_keyword("implements"):
            decl.interfaces.append(self._parse_type_ref())
            while self._accept_punct(","):
                decl.interfaces.append(self._parse_type_ref())
        self._expect_punct("{")
        while not self._accept_punct("}"):
            self._parse_member(decl)
        return decl

    def _parse_member(self, decl):
        if self._accept_punct(";"):
            return
        annotations = self._parse_annotations()
        modifiers = self._parse_modifiers()
        if self._at_keyword("class") or self._at_keyword("interface"):
            # Nested types are parsed and flattened into the enclosing decl's
            # method-less sibling list is out of subset; treat as error.
            self._error("nested type declarations are outside the supported subset")
        type_params = self._parse_type_params()
        # Constructor: identifier matching class name followed by '('.
        token = self._peek()
        if token.kind == IDENT and token.value == decl.name and self._peek(1).is_punct("("):
            ctor = self._parse_method_rest(
                name=self._advance().value,
                return_type=None,
                annotations=annotations,
                modifiers=modifiers,
                type_params=type_params,
                is_constructor=True,
                start=token,
            )
            decl.methods.append(ctor)
            return
        member_type = self._parse_type_ref()
        name_token = self._expect_ident()
        if self._at_punct("("):
            method = self._parse_method_rest(
                name=name_token.value,
                return_type=member_type,
                annotations=annotations,
                modifiers=modifiers,
                type_params=type_params,
                is_constructor=False,
                start=name_token,
            )
            decl.methods.append(method)
        else:
            field = ast.FieldDecl(
                name=name_token.value,
                type=member_type,
                modifiers=modifiers,
                annotations=annotations,
                **self._pos_of(name_token),
            )
            if self._accept_punct("="):
                field.initializer = self.parse_expression()
            decl.fields.append(field)
            while self._accept_punct(","):
                extra_name = self._expect_ident()
                extra = ast.FieldDecl(
                    name=extra_name.value,
                    type=member_type,
                    modifiers=list(modifiers),
                    annotations=[],
                    **self._pos_of(extra_name),
                )
                if self._accept_punct("="):
                    extra.initializer = self.parse_expression()
                decl.fields.append(extra)
            self._expect_punct(";")

    def _parse_method_rest(
        self, name, return_type, annotations, modifiers, type_params, is_constructor, start
    ):
        method = ast.MethodDecl(
            name=name,
            return_type=return_type,
            annotations=annotations,
            modifiers=modifiers,
            type_params=type_params,
            is_constructor=is_constructor,
            **self._pos_of(start),
        )
        self._expect_punct("(")
        if not self._at_punct(")"):
            method.params.append(self._parse_param())
            while self._accept_punct(","):
                method.params.append(self._parse_param())
        self._expect_punct(")")
        if self._accept_keyword("throws"):
            method.throws.append(self._parse_type_ref())
            while self._accept_punct(","):
                method.throws.append(self._parse_type_ref())
        if self._accept_punct(";"):
            method.body = None
        else:
            method.body = self.parse_block()
        return method

    def _parse_param(self):
        annotations = self._parse_annotations()
        self._accept_keyword("final")
        param_type = self._parse_type_ref()
        name_token = self._expect_ident()
        return ast.Param(
            name=name_token.value,
            type=param_type,
            annotations=annotations,
            **self._pos_of(name_token),
        )

    # -- annotations, modifiers, types ---------------------------------------

    def _parse_annotations(self):
        annotations = []
        while self._at_punct("@"):
            start = self._advance()
            name = self._expect_ident().value
            arguments = {}
            if self._accept_punct("("):
                if not self._at_punct(")"):
                    arguments.update(self._parse_annotation_argument())
                    while self._accept_punct(","):
                        arguments.update(self._parse_annotation_argument())
                self._expect_punct(")")
            annotations.append(
                ast.Annotation(name=name, arguments=arguments, **self._pos_of(start))
            )
        return annotations

    def _parse_annotation_argument(self):
        if self._peek().kind == IDENT and self._peek(1).is_punct("="):
            key = self._advance().value
            self._advance()  # '='
            return {key: self._parse_annotation_value()}
        return {"value": self._parse_annotation_value()}

    def _parse_annotation_value(self):
        token = self._peek()
        if token.kind in (STRING_LIT, INT_LIT, BOOL_LIT, CHAR_LIT, IDENT):
            self._advance()
            return token.value
        self._error("unsupported annotation value %r" % (token.value,))

    def _parse_modifiers(self):
        modifiers = []
        while self._peek().kind == KEYWORD and self._peek().value in MODIFIER_KEYWORDS:
            # 'synchronized' as a modifier only when not followed by '('.
            if self._peek().value == "synchronized" and self._peek(1).is_punct("("):
                break
            modifiers.append(self._advance().value)
        return modifiers

    def _parse_type_params(self):
        params = []
        if self._accept_punct("<"):
            params.append(self._expect_ident().value)
            if self._accept_keyword("extends"):
                self._parse_type_ref()
            while self._accept_punct(","):
                params.append(self._expect_ident().value)
                if self._accept_keyword("extends"):
                    self._parse_type_ref()
            self._expect_punct(">")
        return params

    def _parse_type_ref(self):
        token = self._peek()
        if token.kind == KEYWORD and token.value in PRIMITIVE_TYPES:
            self._advance()
            ref = ast.TypeRef(name=token.value, **self._pos_of(token))
        elif token.kind == IDENT:
            name = self._parse_qualified_name()
            ref = ast.TypeRef(name=name, **self._pos_of(token))
            if self._at_punct("<"):
                ref.type_args = self._parse_type_args()
        else:
            self._error("expected a type but found %r" % (token.value,))
        while self._at_punct("[") and self._peek(1).is_punct("]"):
            self._advance()
            self._advance()
            ref.dimensions += 1
        return ref

    def _parse_type_args(self):
        self._expect_punct("<")
        args = []
        if self._accept_punct(">"):
            return args  # diamond
        args.append(self._parse_type_arg())
        while self._accept_punct(","):
            args.append(self._parse_type_arg())
        self._close_type_args()
        return args

    def _parse_type_arg(self):
        if self._accept_punct("?"):
            if self._accept_keyword("extends") or self._accept_keyword("super"):
                return self._parse_type_ref()
            return ast.TypeRef(name="?")
        return self._parse_type_ref()

    def _close_type_args(self):
        """Consume a closing '>' that may be lexed as '>>' or '>>>'."""
        token = self._peek()
        if token.is_punct(">"):
            self._advance()
            return
        if token.is_punct(">>") or token.is_punct(">>>"):
            # Split the token: consume one '>' and push back the remainder.
            rest = token.value[1:]
            self._advance()
            pushed = token._replace(value=rest, column=token.column + 1)
            self.tokens.insert(self.pos, pushed)
            self._pushed.append(self.pos)
            return
        self._error("expected '>' to close type arguments")

    # -- statements ------------------------------------------------------------

    def parse_block(self):
        start = self._expect_punct("{")
        block = ast.Block(**self._pos_of(start))
        while not self._accept_punct("}"):
            block.statements.append(self.parse_statement())
        return block

    def parse_statement(self):
        self._enter()
        try:
            return self._parse_statement()
        finally:
            self.depth -= 1

    def _parse_statement(self):
        token = self.tokens[self.pos]
        if token.kind == PUNCT:
            if token.value == "{":
                return self.parse_block()
            if token.value == ";":
                self.pos += 1
                return ast.EmptyStmt(**self._pos_of(token))
        elif token.kind == KEYWORD:
            keyword = token.value
            if keyword == "if":
                return self._parse_if()
            if keyword == "while":
                return self._parse_while()
            if keyword == "do":
                return self._parse_do_while()
            if keyword == "for":
                return self._parse_for()
            if keyword == "return":
                return self._parse_return()
            if keyword == "assert":
                return self._parse_assert()
            if keyword == "synchronized":
                return self._parse_synchronized()
            if keyword == "switch":
                return self._parse_switch()
            if keyword == "throw":
                return self._parse_throw()
            if keyword == "break":
                self._advance()
                self._expect_punct(";")
                return ast.BreakStmt(**self._pos_of(token))
            if keyword == "continue":
                self._advance()
                self._expect_punct(";")
                return ast.ContinueStmt(**self._pos_of(token))
            if keyword == "final":
                self._advance()
                return self._parse_local_var_decl_known()
            if keyword in PRIMITIVE_TYPES:
                return self._parse_local_var_decl_known()
        decl = self._try_parse_local_var_decl()
        if decl is not None:
            return decl
        expr = self.parse_expression()
        self._expect_punct(";")
        return ast.ExprStmt(expr=expr, line=expr.line, column=expr.column)

    def _parse_if(self):
        start = self._expect_keyword("if")
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        then_branch = self.parse_statement()
        else_branch = None
        if self._accept_keyword("else"):
            else_branch = self.parse_statement()
        return ast.IfStmt(
            condition=condition,
            then_branch=then_branch,
            else_branch=else_branch,
            **self._pos_of(start),
        )

    def _parse_while(self):
        start = self._expect_keyword("while")
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        body = self.parse_statement()
        return ast.WhileStmt(condition=condition, body=body, **self._pos_of(start))

    def _parse_do_while(self):
        start = self._expect_keyword("do")
        body = self.parse_statement()
        self._expect_keyword("while")
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.DoWhileStmt(body=body, condition=condition, **self._pos_of(start))

    def _parse_for(self):
        start = self._expect_keyword("for")
        self._expect_punct("(")
        # For-each: 'Type ident :' — detect by speculative type parse.
        mark = self._mark()
        try:
            var_type = self._parse_type_ref()
            name_token = self._expect_ident()
            if self._accept_punct(":"):
                iterable = self.parse_expression()
                self._expect_punct(")")
                body = self.parse_statement()
                return ast.ForEachStmt(
                    var_type=var_type,
                    var_name=name_token.value,
                    iterable=iterable,
                    body=body,
                    **self._pos_of(start),
                )
        except JavaSyntaxError:
            pass
        self._rewind(mark)
        init = []
        if not self._at_punct(";"):
            decl = self._try_parse_local_var_decl(consume_semicolon=False)
            if decl is not None:
                init.append(decl)
            else:
                init.append(
                    ast.ExprStmt(expr=self.parse_expression())
                )
                while self._accept_punct(","):
                    init.append(ast.ExprStmt(expr=self.parse_expression()))
        self._expect_punct(";")
        condition = None
        if not self._at_punct(";"):
            condition = self.parse_expression()
        self._expect_punct(";")
        update = []
        if not self._at_punct(")"):
            update.append(self.parse_expression())
            while self._accept_punct(","):
                update.append(self.parse_expression())
        self._expect_punct(")")
        body = self.parse_statement()
        return ast.ForStmt(
            init=init, condition=condition, update=update, body=body, **self._pos_of(start)
        )

    def _parse_return(self):
        start = self._expect_keyword("return")
        value = None
        if not self._at_punct(";"):
            value = self.parse_expression()
        self._expect_punct(";")
        return ast.ReturnStmt(value=value, **self._pos_of(start))

    def _parse_assert(self):
        start = self._expect_keyword("assert")
        condition = self.parse_expression()
        message = None
        if self._accept_punct(":"):
            message = self.parse_expression()
        self._expect_punct(";")
        return ast.AssertStmt(condition=condition, message=message, **self._pos_of(start))

    def _parse_synchronized(self):
        start = self._expect_keyword("synchronized")
        self._expect_punct("(")
        lock = self.parse_expression()
        self._expect_punct(")")
        body = self.parse_block()
        return ast.SynchronizedStmt(lock=lock, body=body, **self._pos_of(start))

    def _parse_switch(self):
        start = self._expect_keyword("switch")
        self._expect_punct("(")
        selector = self.parse_expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases = []
        while not self._accept_punct("}"):
            labels = []
            while True:
                if self._accept_keyword("case"):
                    labels.append(self.parse_expression())
                    self._expect_punct(":")
                elif self._accept_keyword("default"):
                    self._expect_punct(":")
                else:
                    break
                if not (
                    self._at_keyword("case") or self._at_keyword("default")
                ):
                    break
            body = []
            while not (
                self._at_keyword("case")
                or self._at_keyword("default")
                or self._at_punct("}")
            ):
                body.append(self.parse_statement())
            cases.append(
                ast.SwitchCase(labels=labels, body=body, **self._pos_of(start))
            )
        return ast.SwitchStmt(
            selector=selector, cases=cases, **self._pos_of(start)
        )

    def _parse_throw(self):
        start = self._expect_keyword("throw")
        value = self.parse_expression()
        self._expect_punct(";")
        return ast.ThrowStmt(value=value, **self._pos_of(start))

    def _try_parse_local_var_decl(self, consume_semicolon=True):
        """Speculatively parse ``Type name [= init] ;`` — rewind on failure."""
        token = self.tokens[self.pos]
        if token.kind != IDENT and not (
            token.kind == KEYWORD and token.value in PRIMITIVE_TYPES
        ):
            return None
        mark = self._mark()
        try:
            var_type = self._parse_type_ref()
            name_token = self.tokens[self.pos]
            following = self._peek(1)
            if (
                name_token.kind == IDENT
                and following.kind == PUNCT
                and following.value in ("=", ";", ",")
            ):
                self.pos += 1
                decl = ast.LocalVarDecl(
                    type=var_type, name=name_token.value, **self._pos_of(name_token)
                )
                if self._accept_punct("="):
                    decl.initializer = self.parse_expression()
                if consume_semicolon:
                    self._expect_punct(";")
                return decl
        except JavaSyntaxError:
            pass
        self._rewind(mark)
        return None

    def _parse_local_var_decl_known(self):
        var_type = self._parse_type_ref()
        name_token = self._expect_ident()
        decl = ast.LocalVarDecl(
            type=var_type, name=name_token.value, **self._pos_of(name_token)
        )
        if self._accept_punct("="):
            decl.initializer = self.parse_expression()
        self._expect_punct(";")
        return decl

    # -- expressions -------------------------------------------------------------

    def parse_expression(self):
        self._enter()
        try:
            return self._parse_assignment()
        finally:
            self.depth -= 1

    #: The only expression forms that may appear left of an assignment
    #: operator; anything else (``a < b = c``) is a syntax error, which
    #: keeps downstream lowering total over parsed programs.
    _ASSIGN_TARGETS = (ast.VarRef, ast.FieldAccess, ast.ArrayAccess)

    def _parse_assignment(self):
        left = self._parse_conditional()
        token = self.tokens[self.pos]
        if token.kind == PUNCT and token.value in _ASSIGN_OPS:
            if not isinstance(left, self._ASSIGN_TARGETS):
                raise JavaSyntaxError(
                    "invalid assignment target %s"
                    % type(left).__name__,
                    left.line,
                    left.column,
                )
            op = self._advance().value
            value = self._parse_assignment()
            return ast.Assign(
                target=left, op=op, value=value, line=left.line, column=left.column
            )
        return left

    def _parse_conditional(self):
        condition = self._parse_binary()
        if self._accept_punct("?"):
            then_expr = self.parse_expression()
            self._expect_punct(":")
            else_expr = self._parse_conditional()
            return ast.Conditional(
                condition=condition,
                then_expr=then_expr,
                else_expr=else_expr,
                line=condition.line,
                column=condition.column,
            )
        return condition

    def _parse_binary(self, min_precedence=1):
        """Precedence climbing over every binary level at once.  The right
        operand of an operator binds one level tighter, which makes each
        level left-associative, as a ladder of one method per level does.
        Like the ladder, an operator never follows a looser one in the same
        loop: the right operand has already taken every tighter operator,
        except after ``instanceof``, whose operand is a type, so
        ``x instanceof T + 1`` stops at ``+``."""
        left = self._parse_unary()
        ceiling = len(_BINARY_LEVELS)
        while True:
            token = self.tokens[self.pos]
            precedence = (
                _BINARY_PRECEDENCE.get(token.value, 0)
                if token.kind == PUNCT or token.kind == KEYWORD
                else 0
            )
            if not min_precedence <= precedence <= ceiling:
                return left
            ceiling = precedence
            self.pos += 1
            if token.kind == KEYWORD:  # instanceof
                target_type = self._parse_type_ref()
                left = ast.InstanceOf(
                    expr=left, type=target_type, line=left.line, column=left.column
                )
            else:
                right = self._parse_binary(precedence + 1)
                left = ast.Binary(
                    op=token.value, left=left, right=right, line=left.line, column=left.column
                )

    def _parse_unary(self):
        token = self.tokens[self.pos]
        if token.kind != PUNCT:
            return self._parse_postfix()
        if token.value in ("!", "-", "+", "~", "++", "--"):
            self.pos += 1
            operand = self._parse_unary()
            return ast.Unary(
                op=token.value, operand=operand, prefix=True, **self._pos_of(token)
            )
        # Cast: '(' Type ')' unary — speculative.
        if token.value == "(":
            mark = self._mark()
            try:
                self.pos += 1
                cast_type = self._parse_type_ref()
                if self._accept_punct(")"):
                    next_token = self.tokens[self.pos]
                    castable = (
                        next_token.kind in (IDENT, INT_LIT, STRING_LIT, CHAR_LIT)
                        or next_token.is_punct("(")
                        or next_token.is_keyword("new")
                        or next_token.is_keyword("this")
                        or (cast_type.is_primitive and next_token.kind != EOF)
                    )
                    if castable:
                        expr = self._parse_unary()
                        return ast.Cast(
                            type=cast_type, expr=expr, **self._pos_of(token)
                        )
            except JavaSyntaxError:
                pass
            self._rewind(mark)
        return self._parse_postfix()

    def _parse_postfix(self):
        expr = self._parse_primary()
        while True:
            token = self.tokens[self.pos]
            if token.kind != PUNCT:
                return expr
            if token.value == ".":
                self.pos += 1
                name_token = self._expect_ident()
                if self._at_punct("("):
                    arguments = self._parse_arguments()
                    expr = ast.MethodCall(
                        receiver=expr,
                        name=name_token.value,
                        arguments=arguments,
                        **self._pos_of(name_token),
                    )
                else:
                    expr = ast.FieldAccess(
                        receiver=expr, name=name_token.value, **self._pos_of(name_token)
                    )
            elif token.value == "[":
                self.pos += 1
                index = self.parse_expression()
                self._expect_punct("]")
                expr = ast.ArrayAccess(
                    array=expr, index=index, line=expr.line, column=expr.column
                )
            elif token.value == "++" or token.value == "--":
                self.pos += 1
                expr = ast.Unary(
                    op=token.value,
                    operand=expr,
                    prefix=False,
                    line=expr.line,
                    column=expr.column,
                )
            else:
                return expr

    def _parse_arguments(self):
        self._expect_punct("(")
        arguments = []
        if not self._at_punct(")"):
            arguments.append(self.parse_expression())
            while self._accept_punct(","):
                arguments.append(self.parse_expression())
        self._expect_punct(")")
        return arguments

    def _parse_primary(self):
        token = self.tokens[self.pos]
        kind = token.kind
        if kind == IDENT:
            self.pos += 1
            if self._at_punct("("):
                arguments = self._parse_arguments()
                return ast.MethodCall(
                    receiver=None,
                    name=token.value,
                    arguments=arguments,
                    **self._pos_of(token),
                )
            return ast.VarRef(name=token.value, **self._pos_of(token))
        if kind == INT_LIT:
            self.pos += 1
            text = token.value.rstrip("lL").replace("_", "")
            try:
                value = int(text, 16) if text.lower().startswith("0x") else int(text)
            except ValueError:
                # A decimal literal past CPython's string-conversion
                # digit limit (``sys.get_int_max_str_digits()``).
                raise JavaSyntaxError(
                    "integer literal too long (%d digits)" % len(text),
                    token.line,
                    token.column,
                ) from None
            return ast.Literal(kind="int", value=value, **self._pos_of(token))
        if kind in _LITERAL_KINDS:
            self.pos += 1
            if kind == BOOL_LIT:
                value = token.value == "true"
            else:
                value = None if kind == NULL_LIT else token.value
            return ast.Literal(kind=_LITERAL_KINDS[kind], value=value, **self._pos_of(token))
        if kind == KEYWORD:
            keyword = token.value
            if keyword == "this":
                self.pos += 1
                if self._at_punct("("):
                    arguments = self._parse_arguments()
                    return ast.MethodCall(
                        receiver=None, name="this", arguments=arguments, **self._pos_of(token)
                    )
                return ast.ThisRef(**self._pos_of(token))
            if keyword == "super":
                self.pos += 1
                if self._at_punct("("):
                    arguments = self._parse_arguments()
                    return ast.MethodCall(
                        receiver=None, name="super", arguments=arguments, **self._pos_of(token)
                    )
                self._expect_punct(".")
                name_token = self._expect_ident()
                if self._at_punct("("):
                    arguments = self._parse_arguments()
                    return ast.MethodCall(
                        receiver=ast.VarRef(name="super", **self._pos_of(token)),
                        name=name_token.value,
                        arguments=arguments,
                        **self._pos_of(name_token),
                    )
                return ast.FieldAccess(
                    receiver=ast.VarRef(name="super", **self._pos_of(token)),
                    name=name_token.value,
                    **self._pos_of(name_token),
                )
            if keyword == "new":
                self.pos += 1
                new_type = self._parse_type_ref()
                arguments = self._parse_arguments()
                return ast.NewObject(
                    type=new_type, arguments=arguments, **self._pos_of(token)
                )
        elif token.is_punct("("):
            self.pos += 1
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        self._error("unexpected token %r in expression" % (token.value,))


def parse_compilation_unit(source, limits=None):
    """Parse source text into a :class:`repro.java.ast.CompilationUnit`.

    With ``limits``, the lexer/parser budgets are enforced and any
    escaping ``RecursionError`` (ambient stack already deep enough that
    the explicit depth counter never fired) is converted into the same
    typed ``ResourceLimitError``.
    """
    if limits is None:
        return Parser(tokenize(source)).parse_compilation_unit()
    with recursion_guard("parse-depth", "recursive-descent parse"):
        tokens = tokenize(source, limits=limits)
        return Parser(tokens, limits=limits).parse_compilation_unit()


def parse_program(sources, limits=None):
    """Parse a list of source texts and return their compilation units."""
    return [parse_compilation_unit(source, limits=limits) for source in sources]
