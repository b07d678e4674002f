"""Tests for the generic forward dataflow framework and must-alias."""

from repro.analysis import ir
from repro.analysis.alias import analyze_aliases
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import ForwardAnalysis
from tests.conftest import build_program, method_ref


def make_cfg(body, params="Collection<Integer> c", extra=""):
    program = build_program(
        "class T { Collection<Integer> entries; %s void m(%s) { %s } }"
        % (extra, params, body)
    )
    ref = method_ref(program, "T", "m")
    cfg = build_cfg(program, ref.class_decl, ref.method_decl)
    return cfg, ref


class ReachingConstants(ForwardAnalysis):
    """A tiny client analysis proving the framework is generic."""

    def initial(self):
        return {}

    def boundary(self):
        return {}

    def join(self, left, right):
        return {
            key: left[key]
            for key in left
            if key in right and left[key] == right[key]
        }

    def transfer(self, node, fact, edge_label=None):
        if node.kind != "instr" or not isinstance(node.instr, ir.Assign):
            return fact
        new = dict(fact)
        source = node.instr.source
        if isinstance(source, ir.Const) and source.kind == "int":
            new[node.instr.target] = source.value
        else:
            new.pop(node.instr.target, None)
        return new


class TestFramework:
    def test_constant_propagation_straight_line(self):
        cfg, _ = make_cfg("int x = 1; int y = 2;")
        result = ReachingConstants().run(cfg)
        fact = result.in_facts[cfg.exit.node_id]
        assert fact.get("x") == 1
        assert fact.get("y") == 2

    def test_join_drops_disagreeing_constants(self):
        cfg, _ = make_cfg(
            "int x = 0; if (b) { x = 1; } else { x = 2; } int y = 3;",
            params="boolean b",
        )
        result = ReachingConstants().run(cfg)
        fact = result.in_facts[cfg.exit.node_id]
        assert "x" not in fact
        assert fact.get("y") == 3

    def test_loop_reaches_fixpoint(self):
        cfg, _ = make_cfg("int x = 1; while (b) { x = x + 1; }", params="boolean b")
        result = ReachingConstants().run(cfg)
        fact = result.in_facts[cfg.exit.node_id]
        assert "x" not in fact  # x varies around the loop


class TestMustAlias:
    def run_alias(self, body, params="Collection<Integer> c"):
        cfg, ref = make_cfg(body, params)
        return cfg, analyze_aliases(
            cfg, [p.name for p in ref.method_decl.params]
        )

    def test_copy_establishes_alias(self):
        cfg, alias = self.run_alias(
            "Iterator<Integer> a = c.iterator(); Iterator<Integer> b = a; b.hasNext();"
        )
        node = [
            n for n in cfg.instr_nodes()
            if isinstance(n.instr, ir.Assign)
            and isinstance(n.instr.source, ir.Call)
            and n.instr.source.method_name == "hasNext"
        ][0]
        assert alias.must_alias(node, "a", "b")

    def test_reassignment_breaks_alias(self):
        cfg, alias = self.run_alias(
            "Iterator<Integer> a = c.iterator();"
            "Iterator<Integer> b = a;"
            "b = c.iterator();"
            "b.hasNext();"
        )
        node = [
            n for n in cfg.instr_nodes()
            if isinstance(n.instr, ir.Assign)
            and isinstance(n.instr.source, ir.Call)
            and n.instr.source.method_name == "hasNext"
        ][0]
        assert not alias.must_alias(node, "a", "b")

    def test_params_have_distinct_witnesses(self):
        cfg, alias = self.run_alias(
            "c.size();", params="Collection<Integer> c, Collection<Integer> d"
        )
        node = cfg.instr_nodes()[0]
        assert not alias.must_alias(node, "c", "d")

    def test_branch_join_demotes_disagreement(self):
        cfg, alias = self.run_alias(
            "Iterator<Integer> x = c.iterator();"
            "if (b) { x = c.iterator(); }"
            "x.hasNext();",
            params="Collection<Integer> c, boolean b",
        )
        node = [
            n for n in cfg.instr_nodes()
            if isinstance(n.instr, ir.Assign)
            and isinstance(n.instr.source, ir.Call)
            and n.instr.source.method_name == "hasNext"
        ][0]
        witness = alias.witness_before(node, "x")
        assert witness is not None
        assert witness[0] == "join"

    def test_alias_class_contains_all_names(self):
        cfg, alias = self.run_alias(
            "Iterator<Integer> a = c.iterator();"
            "Iterator<Integer> b = a;"
            "Iterator<Integer> d = b;"
            "d.hasNext();"
        )
        node = [
            n for n in cfg.instr_nodes()
            if isinstance(n.instr, ir.Assign)
            and isinstance(n.instr.source, ir.Call)
            and n.instr.source.method_name == "hasNext"
        ][0]
        group = alias.alias_class(node, "a")
        assert {"a", "b", "d"} <= group

    def test_loop_join_witnesses_stabilize(self):
        cfg, alias = self.run_alias(
            "Iterator<Integer> it = c.iterator();"
            "while (it.hasNext()) { it.next(); }"
        )
        # Analysis converged (no exception) and the exit fact is defined.
        assert alias.witness_before(cfg.exit, "it") is not None
