"""Tests for tier 1's dominance code (``repro.plural.bitvector``).

``_dominance_intervals`` numbers the dominator tree in preorder, so
``d`` dominates ``n`` iff ``tin[d] <= tin[n] <= tout[d]``.
``_cycle_nodes`` gathers the nodes on some CFG cycle (the natural-loop
bodies) and raises ``Residue("irreducible-cycle")`` for a cycle that is
not a natural loop, which sends the method to tier 2.
"""

import pytest

from repro.analysis.cfg import CFG, build_cfg
from repro.plural.bitvector import Residue, _cycle_nodes, _dominance_intervals
from tests.conftest import build_program, method_ref


def cfg_for(body, params="boolean p, boolean q"):
    program = build_program(
        "class T { void m(%s) { %s } }" % (params, body), include_api=False
    )
    ref = method_ref(program, "T", "m")
    return build_cfg(program, ref.class_decl, ref.method_decl)


class Dominance:
    """Interval dominance and the on-cycle node set of one CFG."""

    def __init__(self, cfg):
        self.rpo = cfg.reverse_postorder()
        self.tin, self.tout = _dominance_intervals(self.rpo)

    def dominates(self, dominator, node):
        tin, tout = self.tin, self.tout
        return (
            tin[dominator.node_id]
            <= tin[node.node_id]
            <= tout[dominator.node_id]
        )

    def cycle_nodes(self):
        return _cycle_nodes(self.rpo, self.tin, self.tout)


def defining(cfg, name):
    return [n for n in cfg.instr_nodes() if n.instr.defined() == name]


class TestDominators:
    def test_entry_dominates_everything(self):
        cfg = cfg_for("int x = 1; if (p) { x = 2; } int y = 3;")
        dom = Dominance(cfg)
        for node in cfg.reachable_nodes():
            assert dom.dominates(cfg.entry, node)

    def test_straight_line_chain(self):
        cfg = cfg_for("int x = 1; int y = 2;")
        dom = Dominance(cfg)
        instr_nodes = cfg.instr_nodes()
        assert dom.dominates(instr_nodes[0], instr_nodes[1])
        assert not dom.dominates(instr_nodes[1], instr_nodes[0])

    def test_branch_sides_do_not_dominate_join(self):
        cfg = cfg_for("int x = 0; if (p) { x = 1; } else { x = 2; } int y = x;")
        dom = Dominance(cfg)
        sides = [n for n in defining(cfg, "x") if "0" not in str(n.instr)]
        join_uses = defining(cfg, "y")
        assert len(sides) == 2 and join_uses
        for side in sides:
            assert not dom.dominates(side, join_uses[0])
        assert not dom.dominates(sides[0], sides[1])
        assert not dom.dominates(sides[1], sides[0])

    def test_branch_node_dominates_both_sides(self):
        cfg = cfg_for("if (p) { int a = 1; } else { int b = 2; }")
        dom = Dominance(cfg)
        branch = [n for n in cfg.nodes if n.kind == "branch"][0]
        for node in cfg.instr_nodes():
            assert dom.dominates(branch, node)

    def test_dominance_is_reflexive(self):
        cfg = cfg_for("int x = 1; if (p) { x = 2; }")
        dom = Dominance(cfg)
        for node in cfg.reachable_nodes():
            assert dom.dominates(node, node)


class TestLoops:
    def test_while_loop_detected(self):
        cfg = cfg_for("while (p) { int x = 1; }")
        cycle = Dominance(cfg).cycle_nodes()
        branch = [n for n in cfg.nodes if n.kind == "branch"][0]
        assert branch.node_id in cycle
        assert defining(cfg, "x")[0].node_id in cycle
        assert cfg.entry.node_id not in cycle
        assert cfg.exit.node_id not in cycle

    def test_loop_body_contains_loop_statements(self):
        cfg = cfg_for("int x = 0; while (p) { x = x + 1; }")
        cycle = Dominance(cfg).cycle_nodes()
        increments = [n for n in cfg.instr_nodes() if "x +" in str(n.instr)]
        initial = [n for n in defining(cfg, "x") if "+" not in str(n.instr)]
        assert increments[0].node_id in cycle
        assert initial[0].node_id not in cycle

    def test_statement_after_loop_not_in_body(self):
        cfg = cfg_for("while (p) { int x = 1; } int y = 2;")
        cycle = Dominance(cfg).cycle_nodes()
        assert defining(cfg, "x")[0].node_id in cycle
        assert defining(cfg, "y")[0].node_id not in cycle

    def test_nested_loops(self):
        cfg = cfg_for("while (p) { while (q) { int x = 1; } }")
        dom = Dominance(cfg)
        cycle = dom.cycle_nodes()
        outer, inner = (
            next(n for n in cfg.nodes if n.cond_var == var) for var in "pq"
        )
        inner_stmt = defining(cfg, "x")[0]
        assert {outer.node_id, inner.node_id, inner_stmt.node_id} <= cycle
        # The inner loop sits inside the outer one's dominance region.
        assert dom.dominates(outer, inner)
        assert dom.dominates(inner, inner_stmt)
        assert not dom.dominates(inner, outer)

    def test_no_loops_in_straight_line(self):
        cfg = cfg_for("int x = 1; if (p) { x = 2; }")
        assert Dominance(cfg).cycle_nodes() == set()

    def test_back_edges_match_loop_count(self):
        cfg = cfg_for("while (p) { int a = 1; } while (q) { int b = 2; }")
        dom = Dominance(cfg)
        index = {node.node_id: i for i, node in enumerate(dom.rpo)}
        retreating = [
            (node, succ)
            for node in dom.rpo
            for succ, _ in node.succs
            if index[succ.node_id] <= index[node.node_id]
        ]
        # One back edge per loop, each into a head that dominates its tail.
        assert len(retreating) == 2
        for tail, head in retreating:
            assert dom.dominates(head, tail)
        cycle = dom.cycle_nodes()
        assert defining(cfg, "a")[0].node_id in cycle
        assert defining(cfg, "b")[0].node_id in cycle

    def test_do_while_loop_detected(self):
        cfg = cfg_for("do { int x = 1; } while (p);")
        cycle = Dominance(cfg).cycle_nodes()
        branch = [n for n in cfg.nodes if n.kind == "branch"][0]
        assert {branch.node_id, defining(cfg, "x")[0].node_id} <= cycle

    def test_irreducible_cycle_is_residue(self):
        """Two entries into one cycle: neither cycle node dominates the
        other, so the retreating edge is no back edge and tier 1 punts."""
        cfg = CFG(lowered=None)
        branch = cfg._new_node("branch", cond_var="p")
        left = cfg._new_node("join")
        right = cfg._new_node("join")
        cfg.add_edge(cfg.entry, branch)
        cfg.add_edge(branch, left, "true")
        cfg.add_edge(branch, right, "false")
        cfg.add_edge(left, right)
        cfg.add_edge(right, left)
        cfg.add_edge(right, cfg.exit)
        dom = Dominance(cfg)
        assert not dom.dominates(left, right)
        assert not dom.dominates(right, left)
        with pytest.raises(Residue) as excinfo:
            dom.cycle_nodes()
        assert excinfo.value.reason == "irreducible-cycle"
