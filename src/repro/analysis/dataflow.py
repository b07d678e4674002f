"""A generic worklist dataflow framework over CFGs.

Analyses subclass :class:`ForwardAnalysis`, providing the lattice
operations (``initial``, ``boundary``, ``join``, ``equals``) and the
``transfer`` function.  ``run`` returns per-node IN/OUT maps keyed by
``node_id``.
"""

from collections import deque


class DataflowResult:
    """IN/OUT facts for every node of a CFG."""

    def __init__(self, in_facts, out_facts):
        self.in_facts = in_facts
        self.out_facts = out_facts


class ForwardAnalysis:
    """Forward may/must dataflow via a worklist fixpoint."""

    def initial(self):
        """Fact for unvisited nodes (the lattice identity for join)."""
        raise NotImplementedError

    def boundary(self):
        """Fact at the CFG entry."""
        raise NotImplementedError

    def join(self, left, right):
        raise NotImplementedError

    def equals(self, left, right):
        return left == right

    def transfer(self, node, fact, edge_label=None):
        """Fact after executing ``node`` given ``fact`` before it."""
        raise NotImplementedError

    def edge_transfer(self, src, dst, label, fact):
        """Optional per-edge refinement (e.g. branch conditions)."""
        return fact

    def run(self, cfg, max_steps=None):
        in_facts = {}
        out_facts = {}
        order = cfg.reverse_postorder()
        priorities = {node.node_id: index for index, node in enumerate(order)}
        for node in cfg.nodes:
            in_facts[node.node_id] = self.initial()
            out_facts[node.node_id] = self.initial()
        in_facts[cfg.entry.node_id] = self.boundary()
        worklist = deque(order)
        queued = {node.node_id for node in order}
        steps = 0
        while worklist:
            if max_steps is not None and steps > max_steps:
                raise RuntimeError("dataflow did not converge in %d steps" % max_steps)
            steps += 1
            node = worklist.popleft()
            queued.discard(node.node_id)
            if node.node_id != cfg.entry.node_id:
                incoming = self.initial()
                first = True
                # Expose the join point to analyses whose join needs a
                # stable identity for merge artifacts (e.g. must-alias
                # join witnesses).
                self._join_node = node
                for pred, label in node.preds:
                    fact = self.edge_transfer(
                        pred, node, label, out_facts[pred.node_id]
                    )
                    incoming = fact if first else self.join(incoming, fact)
                    first = False
                in_facts[node.node_id] = incoming
            new_out = self.transfer(node, in_facts[node.node_id])
            if not self.equals(new_out, out_facts[node.node_id]):
                out_facts[node.node_id] = new_out
                for succ, _ in node.succs:
                    if succ.node_id not in queued:
                        queued.add(succ.node_id)
                        worklist.append(succ)
        return DataflowResult(in_facts, out_facts)
