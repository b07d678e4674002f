"""Property-based frontend round-trips on randomly generated programs.

Strategy: generate random (but well-formed) Java-subset ASTs via source
templates, pretty-print, re-parse, re-print — the two prints must agree
(printer-parser fixpoint), and the re-parsed tree must preserve
structural counts (methods, statements, calls).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.java import ast
from repro.java.parser import parse_compilation_unit
from repro.java.pretty import pretty_print

IDENT = st.sampled_from(["a", "b", "c", "value", "count", "it"])
INT = st.integers(min_value=0, max_value=99)


@st.composite
def expression(draw, depth=0):
    if depth >= 3:
        choice = draw(st.integers(min_value=0, max_value=1))
    else:
        choice = draw(st.integers(min_value=0, max_value=6))
    if choice == 0:
        return str(draw(INT))
    if choice == 1:
        return draw(IDENT)
    if choice == 2:
        left = draw(expression(depth=depth + 1))
        right = draw(expression(depth=depth + 1))
        op = draw(st.sampled_from(["+", "-", "*", "<", "==", "&&"]))
        return "(%s %s %s)" % (left, op, right)
    if choice == 3:
        operand = draw(expression(depth=depth + 1))
        return "(!%s)" % operand if draw(st.booleans()) else "(-%s)" % operand
    if choice == 4:
        receiver = draw(IDENT)
        method = draw(st.sampled_from(["size", "poke", "get"]))
        args = draw(st.lists(expression(depth=depth + 1), max_size=2))
        return "%s.%s(%s)" % (receiver, method, ", ".join(args))
    if choice == 5:
        cond = draw(expression(depth=depth + 1))
        then = draw(expression(depth=depth + 1))
        other = draw(expression(depth=depth + 1))
        return "(%s ? %s : %s)" % (cond, then, other)
    return '"s%d"' % draw(INT)


@st.composite
def statement(draw, depth=0):
    if depth >= 2:
        choice = draw(st.integers(min_value=0, max_value=1))
    else:
        choice = draw(st.integers(min_value=0, max_value=4))
    if choice == 0:
        return "int %s = %s;" % (draw(IDENT), draw(expression()))
    if choice == 1:
        return "%s = %s;" % (draw(IDENT), draw(expression()))
    if choice == 2:
        cond = draw(expression())
        body = draw(st.lists(statement(depth=depth + 1), min_size=1, max_size=2))
        if draw(st.booleans()):
            other = draw(
                st.lists(statement(depth=depth + 1), min_size=1, max_size=2)
            )
            return "if (%s) { %s } else { %s }" % (
                cond, " ".join(body), " ".join(other),
            )
        return "if (%s) { %s }" % (cond, " ".join(body))
    if choice == 3:
        cond = draw(expression())
        body = draw(st.lists(statement(depth=depth + 1), max_size=2))
        return "while (%s) { %s }" % (cond, " ".join(body))
    return "return %s;" % draw(expression())


@st.composite
def java_class(draw):
    methods = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        statements = draw(st.lists(statement(), min_size=1, max_size=4))
        methods.append(
            "int m%d(int a, int b) { %s return 0; }"
            % (index, " ".join(statements))
        )
    fields = draw(st.integers(min_value=0, max_value=2))
    field_text = " ".join("int f%d;" % i for i in range(fields))
    return "class Rand { %s %s }" % (field_text, " ".join(methods))


def structural_counts(unit):
    decl = unit.types[0]
    return {
        "methods": len(decl.methods),
        "fields": len(decl.fields),
        "calls": len(ast.find_nodes(decl, ast.MethodCall)),
        "ifs": len(ast.find_nodes(decl, ast.IfStmt)),
        "whiles": len(ast.find_nodes(decl, ast.WhileStmt)),
        "returns": len(ast.find_nodes(decl, ast.ReturnStmt)),
    }


class TestRandomRoundTrips:
    @given(java_class())
    @settings(max_examples=60, deadline=None)
    def test_print_parse_fixpoint(self, source):
        first = pretty_print(parse_compilation_unit(source))
        second = pretty_print(parse_compilation_unit(first))
        assert first == second

    @given(java_class())
    @settings(max_examples=60, deadline=None)
    def test_structure_preserved(self, source):
        original = parse_compilation_unit(source)
        reparsed = parse_compilation_unit(pretty_print(original))
        assert structural_counts(original) == structural_counts(reparsed)

    @given(java_class())
    @settings(max_examples=30, deadline=None)
    def test_lowering_never_crashes(self, source):
        from repro.analysis.cfg import build_cfg
        from repro.java.symbols import resolve_program

        program = resolve_program([parse_compilation_unit(source)])
        decl = program.lookup_class("Rand")
        for method in decl.methods:
            cfg = build_cfg(program, decl, method)
            assert cfg.entry is not None

    @given(java_class())
    @settings(max_examples=15, deadline=None)
    def test_checker_never_crashes_on_random_programs(self, source):
        from repro.java.symbols import resolve_program
        from repro.plural.checker import check_program

        program = resolve_program([parse_compilation_unit(source)])
        warnings = check_program(program)
        assert isinstance(warnings, list)
