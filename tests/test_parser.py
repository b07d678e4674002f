"""Unit tests for the Java-subset parser."""

import pytest

from repro.java import ast
from repro.java.errors import JavaSyntaxError
from repro.java.lexer import tokenize
from repro.java.parser import Parser, parse_compilation_unit


def parse_class(source):
    unit = parse_compilation_unit(source)
    assert len(unit.types) == 1
    return unit.types[0]


def parse_single_method(body):
    decl = parse_class("class T { void m() { %s } }" % body)
    return decl.methods[0]


def first_stmt(body):
    return parse_single_method(body).body.statements[0]


class TestTopLevel:
    def test_package_and_imports(self):
        unit = parse_compilation_unit(
            "package a.b.c; import java.util.List; import java.util.*; class X {}"
        )
        assert unit.package == "a.b.c"
        assert unit.imports == ["java.util.List", "java.util.*"]

    def test_class_declaration(self):
        decl = parse_class("public class Foo {}")
        assert decl.name == "Foo"
        assert decl.modifiers == ["public"]
        assert not decl.is_interface

    def test_interface_declaration(self):
        decl = parse_class("interface I {}")
        assert decl.is_interface

    def test_generic_class_with_bounds(self):
        decl = parse_class("class Box<T extends Number, U> {}")
        assert decl.type_params == ["T", "U"]

    def test_extends_and_implements(self):
        decl = parse_class("class A extends B implements C, D {}")
        assert decl.superclass.name == "B"
        assert [ref.name for ref in decl.interfaces] == ["C", "D"]

    def test_interface_extends_multiple(self):
        decl = parse_class("interface A extends B, C {}")
        assert [ref.name for ref in decl.interfaces] == ["B", "C"]

    def test_missing_brace_raises(self):
        with pytest.raises(JavaSyntaxError):
            parse_compilation_unit("class X {")


class TestMembers:
    def test_field_with_initializer(self):
        decl = parse_class("class X { int a = 5; }")
        field = decl.fields[0]
        assert field.name == "a"
        assert isinstance(field.initializer, ast.Literal)

    def test_multiple_fields_one_declaration(self):
        decl = parse_class("class X { int a, b = 2; }")
        assert [f.name for f in decl.fields] == ["a", "b"]
        assert decl.fields[1].initializer.value == 2

    def test_generic_field_type(self):
        decl = parse_class("class X { Collection<Integer> entries; }")
        field_type = decl.fields[0].type
        assert field_type.name == "Collection"
        assert field_type.type_args[0].name == "Integer"

    def test_nested_generics_with_shift_ambiguity(self):
        decl = parse_class("class X { Map<String, List<Integer>> m; }")
        field_type = decl.fields[0].type
        assert field_type.type_args[1].name == "List"
        assert field_type.type_args[1].type_args[0].name == "Integer"

    def test_method_with_params(self):
        decl = parse_class("class X { int add(int a, int b) { return a; } }")
        method = decl.methods[0]
        assert [p.name for p in method.params] == ["a", "b"]
        assert method.return_type.name == "int"

    def test_constructor_recognized(self):
        decl = parse_class("class X { X() { } void X2() { } }")
        assert decl.methods[0].is_constructor
        assert not decl.methods[1].is_constructor

    def test_abstract_method_has_no_body(self):
        decl = parse_class("interface I { void m(); }")
        assert decl.methods[0].body is None

    def test_throws_clause(self):
        decl = parse_class("class X { void m() throws E1, E2 { } }")
        assert [t.name for t in decl.methods[0].throws] == ["E1", "E2"]

    def test_array_types(self):
        decl = parse_class("class X { int[] xs; String[][] grid; }")
        assert decl.fields[0].type.dimensions == 1
        assert decl.fields[1].type.dimensions == 2


class TestAnnotations:
    def test_marker_annotation(self):
        decl = parse_class("class X { @Test void m() { } }")
        assert decl.methods[0].annotations[0].name == "Test"

    def test_single_value_annotation(self):
        decl = parse_class('@States("A, B") class X { }')
        assert decl.annotations[0].argument("value") == "A, B"

    def test_key_value_annotation(self):
        decl = parse_class(
            'class X { @Perm(requires="full(this)", ensures="pure(this)") void m() { } }'
        )
        ann = decl.methods[0].annotations[0]
        assert ann.argument("requires") == "full(this)"
        assert ann.argument("ensures") == "pure(this)"

    def test_stacked_annotations(self):
        decl = parse_class(
            'class X { @TrueIndicates("A") @FalseIndicates("B") boolean m() { return true; } }'
        )
        names = [a.name for a in decl.methods[0].annotations]
        assert names == ["TrueIndicates", "FalseIndicates"]

    def test_annotation_on_parameter(self):
        decl = parse_class("class X { void m(@NonNull String s) { } }")
        assert decl.methods[0].params[0].annotations[0].name == "NonNull"

    def test_annotation_on_field(self):
        decl = parse_class('class X { @Perm("share") Collection<Integer> c; }')
        assert decl.fields[0].annotations[0].argument("value") == "share"


class TestStatements:
    def test_local_var_decl(self):
        stmt = first_stmt("int x = 1;")
        assert isinstance(stmt, ast.LocalVarDecl)
        assert stmt.name == "x"

    def test_generic_local_vs_comparison_disambiguation(self):
        method = parse_single_method("Iterator<Integer> it = c.iterator(); int r = a < b ? 1 : 0;")
        assert isinstance(method.body.statements[0], ast.LocalVarDecl)
        second = method.body.statements[1]
        assert isinstance(second, ast.LocalVarDecl)
        assert isinstance(second.initializer, ast.Conditional)

    def test_if_else(self):
        stmt = first_stmt("if (a) { b(); } else { c(); }")
        assert isinstance(stmt, ast.IfStmt)
        assert stmt.else_branch is not None

    def test_if_without_braces(self):
        stmt = first_stmt("if (a) b();")
        assert isinstance(stmt.then_branch, ast.ExprStmt)

    def test_while(self):
        stmt = first_stmt("while (it.hasNext()) { it.next(); }")
        assert isinstance(stmt, ast.WhileStmt)

    def test_do_while(self):
        stmt = first_stmt("do { a(); } while (b);")
        assert isinstance(stmt, ast.DoWhileStmt)

    def test_classic_for(self):
        stmt = first_stmt("for (int i = 0; i < n; i++) { use(i); }")
        assert isinstance(stmt, ast.ForStmt)
        assert isinstance(stmt.init[0], ast.LocalVarDecl)
        assert stmt.condition is not None
        assert len(stmt.update) == 1

    def test_for_with_empty_sections(self):
        stmt = first_stmt("for (;;) { break; }")
        assert isinstance(stmt, ast.ForStmt)
        assert stmt.init == [] and stmt.condition is None and stmt.update == []

    def test_foreach(self):
        stmt = first_stmt("for (Integer x : xs) { use(x); }")
        assert isinstance(stmt, ast.ForEachStmt)
        assert stmt.var_name == "x"

    def test_return_with_and_without_value(self):
        method = parse_single_method("if (a) { return; } return;")
        inner = method.body.statements[0].then_branch.statements[0]
        assert isinstance(inner, ast.ReturnStmt)

    def test_assert_with_message(self):
        stmt = first_stmt('assert x > 0 : "positive";')
        assert isinstance(stmt, ast.AssertStmt)
        assert stmt.message is not None

    def test_synchronized_block(self):
        stmt = first_stmt("synchronized (lock) { touch(); }")
        assert isinstance(stmt, ast.SynchronizedStmt)

    def test_break_continue(self):
        method = parse_single_method("while (a) { if (b) break; continue; }")
        loop = method.body.statements[0]
        assert isinstance(loop, ast.WhileStmt)

    def test_throw(self):
        stmt = first_stmt("throw new RuntimeException();")
        assert isinstance(stmt, ast.ThrowStmt)

    def test_empty_statement(self):
        stmt = first_stmt(";")
        assert isinstance(stmt, ast.EmptyStmt)


class TestExpressions:
    def test_precedence_multiplication_before_addition(self):
        stmt = first_stmt("int x = a + b * c;")
        expr = stmt.initializer
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_logical_precedence(self):
        stmt = first_stmt("boolean x = a || b && c;")
        assert stmt.initializer.op == "||"
        assert stmt.initializer.right.op == "&&"

    def test_unary_not(self):
        stmt = first_stmt("boolean x = !done;")
        assert isinstance(stmt.initializer, ast.Unary)
        assert stmt.initializer.op == "!"

    def test_chained_calls(self):
        stmt = first_stmt("int x = r1.createColIter().next();")
        outer = stmt.initializer
        assert isinstance(outer, ast.MethodCall)
        assert outer.name == "next"
        assert outer.receiver.name == "createColIter"

    def test_field_access_chain(self):
        stmt = first_stmt("int x = a.b.c;")
        expr = stmt.initializer
        assert isinstance(expr, ast.FieldAccess)
        assert expr.name == "c"

    def test_new_with_type_args(self):
        stmt = first_stmt("Object o = new ArrayList<Integer>();")
        assert isinstance(stmt.initializer, ast.NewObject)
        assert stmt.initializer.type.type_args[0].name == "Integer"

    def test_assignment_expression(self):
        stmt = first_stmt("x = y = 1;")
        assert isinstance(stmt.expr, ast.Assign)
        assert isinstance(stmt.expr.value, ast.Assign)

    def test_compound_assignment(self):
        stmt = first_stmt("x += 2;")
        assert stmt.expr.op == "+="

    def test_cast(self):
        stmt = first_stmt("Integer i = (Integer) o;")
        assert isinstance(stmt.initializer, ast.Cast)

    def test_parenthesized_expression_not_cast(self):
        stmt = first_stmt("int x = (a) + b;")
        assert isinstance(stmt.initializer, ast.Binary)

    def test_instanceof(self):
        stmt = first_stmt("boolean b = o instanceof String;")
        assert isinstance(stmt.initializer, ast.InstanceOf)

    def test_conditional_expression(self):
        stmt = first_stmt("int x = a ? 1 : 2;")
        assert isinstance(stmt.initializer, ast.Conditional)

    def test_array_access(self):
        stmt = first_stmt("int x = xs[0];")
        assert isinstance(stmt.initializer, ast.ArrayAccess)

    def test_this_and_field_store(self):
        stmt = first_stmt("this.f = v;")
        assert isinstance(stmt.expr, ast.Assign)
        assert isinstance(stmt.expr.target, ast.FieldAccess)
        assert isinstance(stmt.expr.target.receiver, ast.ThisRef)

    def test_postfix_increment(self):
        stmt = first_stmt("i++;")
        assert isinstance(stmt.expr, ast.Unary)
        assert not stmt.expr.prefix

    def test_string_literal_argument(self):
        stmt = first_stmt('parse("1,2,3");')
        assert stmt.expr.arguments[0].value == "1,2,3"


class TestRewoundSpeculation:
    """A probe that reads ``a < b >> 2`` as type arguments splits the
    ``>>``; its rewind must give the next parse the tokens it was given.
    One test per rewind site."""

    SHIFTED = ast.Binary(
        op="<",
        left=ast.VarRef(name="a"),
        right=ast.Binary(
            op=">>", left=ast.VarRef(name="b"), right=ast.Literal(kind="int", value=2)
        ),
    )

    @staticmethod
    def parse_leaves_tokens(body):
        """Parse ``body`` in a method; assert no split outlived a rewind."""
        source = "class T { void m() { %s } }" % body
        tokens = tokenize(source)
        parser = Parser(list(tokens))
        unit = parser.parse_compilation_unit()
        assert parser.tokens == tokens
        return unit.types[0].methods[0].body.statements[0]

    def test_cast_probe(self):
        stmt = self.parse_leaves_tokens("boolean x = (a < b >> 2);")
        assert stmt.initializer == self.SHIFTED
        stmt = self.parse_leaves_tokens("if ((a < b >>> 1) == c) {}")
        assert stmt.condition.left.right.op == ">>>"

    def test_local_var_decl_probe(self):
        stmt = self.parse_leaves_tokens("a < b >> 2;")
        assert isinstance(stmt, ast.ExprStmt)
        assert stmt.expr == self.SHIFTED

    def test_for_each_probe(self):
        stmt = self.parse_leaves_tokens("for (a < b >> 2; ; ) {}")
        assert isinstance(stmt, ast.ForStmt)
        assert stmt.init[0].expr == self.SHIFTED

    def test_type_arguments_still_split(self):
        stmt = first_stmt("Map<String, List<Integer>> m = (List<List<Integer>>) o;")
        assert str(stmt.type) == "Map<String, List<Integer>>"
        assert str(stmt.initializer.type) == "List<List<Integer>>"


class TestWalk:
    def test_walk_visits_all_calls(self):
        decl = parse_class(
            "class X { void m() { a(); b().c(); } }"
        )
        calls = ast.find_nodes(decl, ast.MethodCall)
        assert sorted(call.name for call in calls) == ["a", "b", "c"]

    def test_visitor_dispatch(self):
        seen = []

        class CallCollector(ast.NodeVisitor):
            def visit_MethodCall(self, node):
                seen.append(node.name)
                self.generic_visit(node)

        decl = parse_class("class X { void m() { f(g()); } }")
        CallCollector().visit(decl)
        assert sorted(seen) == ["f", "g"]
