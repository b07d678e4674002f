"""Backward live-variable analysis over the IR CFG.

Used by the PFG builder to know where a permission-carrying variable dies
(its permission flows to the owner's postcondition at that point) and by
tests as a second client of the generic dataflow framework.
"""

from repro.analysis import ir
from repro.analysis.dataflow import BackwardAnalysis


class LivenessAnalysis(BackwardAnalysis):
    """Classic live-variable analysis; facts are frozensets of names."""

    def initial(self):
        return frozenset()

    def boundary(self):
        return frozenset()

    def join(self, left, right):
        return left | right

    def transfer(self, node, fact):
        if node.kind == "branch":
            return fact | {node.cond_var}
        if node.kind != "instr":
            return fact
        instr = node.instr
        defined = instr.defined()
        live = set(fact)
        if defined is not None:
            live.discard(defined)
        live.update(instr.used())
        return frozenset(live)


def analyze_liveness(cfg):
    """Run liveness; returns the raw :class:`DataflowResult`."""
    return LivenessAnalysis().run(cfg)


def live_before(result, node):
    return result.in_facts[node.node_id]
