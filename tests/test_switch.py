"""Tests for switch statements: parse, print, lower, check."""

from repro.analysis import ir
from repro.analysis.cfg import build_cfg
from repro.analysis.callgraph import iter_instrs
from repro.analysis.ir import lower_method
from repro.java import ast
from repro.java.parser import parse_compilation_unit
from repro.java.pretty import pretty_print
from repro.plural.checker import check_program
from tests.conftest import build_program, method_ref


def parse_switch(body):
    unit = parse_compilation_unit(
        "class S { int m(int x, int y) { %s } }" % body
    )
    return unit.types[0].methods[0].body.statements[0]


class TestParsing:
    def test_basic_switch(self):
        stmt = parse_switch(
            "switch (x) { case 1: return 10; case 2: return 20; default: return 0; }"
        )
        assert isinstance(stmt, ast.SwitchStmt)
        assert len(stmt.cases) == 3
        assert stmt.cases[0].labels[0].value == 1
        assert stmt.cases[2].is_default

    def test_stacked_labels(self):
        stmt = parse_switch(
            "switch (x) { case 1: case 2: return 12; default: return 0; }"
        )
        assert len(stmt.cases) == 2
        assert [l.value for l in stmt.cases[0].labels] == [1, 2]

    def test_case_with_break(self):
        stmt = parse_switch(
            "switch (x) { case 1: y = 1; break; default: y = 0; }"
        )
        assert len(stmt.cases[0].body) == 2

    def test_empty_switch(self):
        stmt = parse_switch("switch (x) { }")
        assert stmt.cases == []

    def test_pretty_print_roundtrip(self):
        source = (
            "class S { int m(int x) { switch (x) "
            "{ case 1: return 1; case 2: case 3: return 23; default: return 0; } } }"
        )
        first = pretty_print(parse_compilation_unit(source))
        second = pretty_print(parse_compilation_unit(first))
        assert first == second
        assert "switch (x) {" in first
        assert "default:" in first


class TestLowering:
    def lower(self, body):
        program = build_program(
            "class S { int m(int x, Collection<Integer> c) { %s } }" % body
        )
        ref = method_ref(program, "S", "m")
        return program, ref, lower_method(
            program, ref.class_decl, ref.method_decl
        )

    def test_switch_desugars_to_branches(self):
        program, ref, _ = self.lower(
            "switch (x) { case 1: return 1; case 2: return 2; default: return 0; }"
        )
        cfg = build_cfg(program, ref.class_decl, ref.method_decl)
        branches = [n for n in cfg.nodes if n.kind == "branch"]
        assert len(branches) == 2  # one per labeled case

    def test_equality_tests_emitted(self):
        _, _, lowered = self.lower(
            "switch (x) { case 7: return 1; default: return 0; }"
        )
        binops = [
            i for i in iter_instrs(lowered.body)
            if isinstance(i, ir.Assign)
            and isinstance(i.source, ir.BinOp)
            and i.source.op == "=="
        ]
        assert binops

    def test_stacked_labels_or_together(self):
        _, _, lowered = self.lower(
            "switch (x) { case 1: case 2: return 1; default: return 0; }"
        )
        ors = [
            i for i in iter_instrs(lowered.body)
            if isinstance(i, ir.Assign)
            and isinstance(i.source, ir.BinOp)
            and i.source.op == "||"
        ]
        assert ors

    def test_break_in_switch_does_not_break_loop(self):
        # A switch inside a loop: its break ends the case, not the loop,
        # so the loop still iterates (the statement after the switch in
        # the loop body must be reachable on every path).
        program, ref, _ = self.lower(
            """
            int acc = 0;
            while (acc < 10) {
                switch (x) { case 1: acc = acc + 1; break; default: acc = acc + 2; }
                acc = acc + 100;
            }
            return acc;
            """
        )
        cfg = build_cfg(program, ref.class_decl, ref.method_decl)
        hundred_adds = [
            n for n in cfg.instr_nodes() if "100" in str(n.instr)
        ]
        reachable = {n.node_id for n in cfg.reachable_nodes()}
        assert any(n.node_id in reachable for n in hundred_adds)

    def test_break_in_loop_inside_switch_breaks_loop(self):
        program, ref, _ = self.lower(
            """
            switch (x) {
                case 1:
                    while (true) { break; }
                    return 1;
                default: return 0;
            }
            return -1;
            """
        )
        cfg = build_cfg(program, ref.class_decl, ref.method_decl)
        assert cfg.exit in cfg.reachable_nodes()


class TestCheckingThroughSwitch:
    def test_guarded_use_inside_switch_verifies(self):
        program = build_program(
            """
            class S {
                int pick(Collection<Integer> c, int mode) {
                    Iterator<Integer> it = c.iterator();
                    switch (mode) {
                        case 1:
                            if (it.hasNext()) { return it.next(); }
                            return 0;
                        default:
                            return -1;
                    }
                }
            }
            """
        )
        assert check_program(program) == []

    def test_unguarded_use_inside_switch_warns(self):
        program = build_program(
            """
            class S {
                int pick(Collection<Integer> c, int mode) {
                    Iterator<Integer> it = c.iterator();
                    switch (mode) {
                        case 1: return it.next();
                        default: return -1;
                    }
                }
            }
            """
        )
        warnings = check_program(program)
        assert [w.kind for w in warnings] == ["wrong-state"]
