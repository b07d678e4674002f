"""Tests for symbol resolution and the expression typer."""

import pytest

from repro.java import ast
from repro.java.errors import ResolutionError
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program
from repro.java.types import ExprTyper
from tests.conftest import build_program


class TestProgramResolution:
    def test_classes_indexed_by_name(self, api_program):
        assert api_program.lookup_class("Iterator") is not None
        assert api_program.lookup_class("Collection") is not None

    def test_lookup_strips_generics(self, api_program):
        assert api_program.lookup_class("Iterator<Integer>").name == "Iterator"

    def test_lookup_strips_package_qualifier(self, api_program):
        assert api_program.lookup_class("java.util.Iterator").name == "Iterator"

    def test_duplicate_class_raises(self):
        with pytest.raises(ResolutionError):
            resolve_program(
                [
                    parse_compilation_unit("class A {}"),
                    parse_compilation_unit("class A {}"),
                ]
            )

    def test_supertypes_transitive(self, api_program):
        arraylist = api_program.lookup_class("ArrayList")
        names = {decl.name for decl in api_program.supertypes(arraylist)}
        assert "Collection" in names
        assert "Iterable" in names

    def test_is_subtype(self, api_program):
        assert api_program.is_subtype("ArrayList", "Collection")
        assert api_program.is_subtype("Collection", "Iterable")
        assert api_program.is_subtype("ArrayList", "Iterable")
        assert not api_program.is_subtype("Iterable", "ArrayList")

    def test_everything_is_subtype_of_object(self, api_program):
        assert api_program.is_subtype("Iterator", "Object")

    def test_unknown_subtype_is_false(self, api_program):
        assert not api_program.is_subtype("Mystery", "Iterator")


class TestMethodResolution:
    def test_resolve_in_declaring_class(self, api_program):
        ref = api_program.resolve_method("Iterator", "next", 0)
        assert ref is not None
        assert ref.class_decl.name == "Iterator"

    def test_resolve_through_supertype(self):
        program = build_program(
            "class Sub implements Iterator<Integer> { }",
        )
        ref = program.resolve_method("Sub", "next", 0)
        assert ref.class_decl.name == "Iterator"

    def test_override_shadows_supertype(self, api_program):
        ref = api_program.resolve_method("ListIterator", "next", 0)
        assert ref.class_decl.name == "ListIterator"

    def test_arg_count_disambiguation(self):
        program = build_program(
            "class O { void m() { } void m(int a) { } }"
        )
        ref = program.resolve_method("O", "m", 1)
        assert len(ref.method_decl.params) == 1

    def test_unknown_method_returns_none(self, api_program):
        assert api_program.resolve_method("Iterator", "missing", 0) is None

    def test_resolve_constructor(self, api_program):
        ref = api_program.resolve_constructor("ArrayList", 0)
        assert ref is not None
        assert ref.method_decl.is_constructor

    def test_lookup_field_through_hierarchy(self):
        program = build_program(
            "class Base { int shared; }",
            "class Derived extends Base { }",
        )
        owner, field = program.lookup_field("Derived", "shared")
        assert owner.name == "Base"
        assert field.name == "shared"

    def test_methods_with_bodies_excludes_interface_methods(self, api_program):
        names = {ref.qualified_name for ref in api_program.methods_with_bodies()}
        assert "Iterator.next" not in names
        assert "ListIterator.next" in names


class TestExprTyper:
    def make_typer(self, body, params="Collection<Integer> c"):
        program = build_program(
            "class T { Collection<Integer> entries; int val; void m(%s) { %s } }"
            % (params, body)
        )
        decl = program.lookup_class("T")
        method = decl.find_method("m")[0]
        return program, decl, method, ExprTyper(program, decl, method)

    def _initializer(self, method, index=0):
        return method.body.statements[index].initializer

    def test_param_type(self):
        program, decl, method, typer = self.make_typer("int x = 0;")
        expr = ast.VarRef(name="c")
        assert typer.type_of(expr).name == "Collection"

    def test_local_type_from_declaration(self):
        _, _, method, typer = self.make_typer(
            "Iterator<Integer> it = c.iterator(); int x = 0;"
        )
        assert typer.type_of(ast.VarRef(name="it")).name == "Iterator"

    def test_generic_return_substitution(self):
        _, _, method, typer = self.make_typer("int x = 0;")
        call = ast.MethodCall(
            receiver=ast.VarRef(name="c"), name="iterator", arguments=[]
        )
        result = typer.type_of(call)
        assert result.name == "Iterator"
        assert result.type_args[0].name == "Integer"

    def test_nested_generic_substitution(self):
        _, _, method, typer = self.make_typer("int x = 0;")
        call = ast.MethodCall(
            receiver=ast.MethodCall(
                receiver=ast.VarRef(name="c"), name="iterator", arguments=[]
            ),
            name="next",
            arguments=[],
        )
        assert typer.type_of(call).name == "Integer"

    def test_field_type(self):
        _, _, _, typer = self.make_typer("int x = 0;")
        expr = ast.FieldAccess(receiver=ast.ThisRef(), name="entries")
        assert typer.type_of(expr).name == "Collection"

    def test_unqualified_field_read(self):
        _, _, _, typer = self.make_typer("int x = 0;")
        assert typer.type_of(ast.VarRef(name="entries")).name == "Collection"

    def test_this_type(self):
        _, decl, _, typer = self.make_typer("int x = 0;")
        assert typer.type_of(ast.ThisRef()).name == "T"

    def test_comparison_is_boolean(self):
        _, _, _, typer = self.make_typer("int x = 0;")
        expr = ast.Binary(
            op="<",
            left=ast.Literal(kind="int", value=1),
            right=ast.Literal(kind="int", value=2),
        )
        assert typer.type_of(expr).name == "boolean"

    def test_receiver_class_name_for_chain(self):
        _, _, method, typer = self.make_typer("int x = 0;")
        inner = ast.MethodCall(
            receiver=ast.VarRef(name="c"), name="iterator", arguments=[]
        )
        outer = ast.MethodCall(receiver=inner, name="hasNext", arguments=[])
        assert typer.receiver_class_name(outer) == "Iterator"

    def test_unknown_receiver_types_as_none(self):
        _, _, _, typer = self.make_typer("int x = 0;")
        expr = ast.MethodCall(
            receiver=ast.VarRef(name="ghost"), name="poke", arguments=[]
        )
        assert typer.type_of(expr) is None
