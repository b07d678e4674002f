"""Control-flow graph construction over the lowered IR.

Each :class:`CFGNode` carries at most one IR instruction; synthetic nodes
mark method entry/exit, joins, and branches.  Branch nodes record the
condition variable so downstream analyses (PLURAL's state-test refinement,
ANEK's PFG builder) can trace it back to e.g. a ``hasNext()`` call.
"""

from repro.analysis import ir


class CFGNode:
    """One node of a control-flow graph.

    ``kind`` is one of ``"entry"``, ``"exit"``, ``"instr"``, ``"branch"``,
    ``"join"``.  For ``"instr"`` nodes, ``instr`` holds the IR instruction;
    for ``"branch"`` nodes, ``cond_var`` names the condition variable.
    Edges are stored on the node: ``succs``/``preds`` are lists of
    ``(node, label)`` where label is ``None``, ``"true"`` or ``"false"``.
    """

    __slots__ = ("node_id", "kind", "instr", "cond_var", "succs", "preds")

    def __init__(self, node_id, kind, instr=None, cond_var=None):
        self.node_id = node_id
        self.kind = kind
        self.instr = instr
        self.cond_var = cond_var
        self.succs = []
        self.preds = []

    def __repr__(self):
        if self.kind == "instr":
            return "CFGNode(%d, %s)" % (self.node_id, self.instr)
        if self.kind == "branch":
            return "CFGNode(%d, branch %s)" % (self.node_id, self.cond_var)
        return "CFGNode(%d, %s)" % (self.node_id, self.kind)


class CFG:
    """A per-method control-flow graph.

    ``lowered`` is the :class:`repro.analysis.ir.LoweredMethod` the graph
    was built from, so a caller that needs both (the PFG stage, which
    also resolves the method's call targets) lowers the method once.
    """

    def __init__(self, lowered):
        self.lowered = lowered
        self.nodes = []
        self.entry = self._new_node("entry")
        self.exit = self._new_node("exit")

    def _new_node(self, kind, instr=None, cond_var=None):
        node = CFGNode(len(self.nodes), kind, instr=instr, cond_var=cond_var)
        self.nodes.append(node)
        return node

    def add_edge(self, src, dst, label=None):
        src.succs.append((dst, label))
        dst.preds.append((src, label))

    # -- queries ---------------------------------------------------------------

    def instr_nodes(self):
        return [node for node in self.nodes if node.kind == "instr"]

    def reachable_nodes(self):
        """Nodes reachable from entry, in discovery order."""
        seen = {self.entry.node_id}
        order = [self.entry]
        stack = [self.entry]
        while stack:
            node = stack.pop()
            for succ, _ in node.succs:
                if succ.node_id not in seen:
                    seen.add(succ.node_id)
                    order.append(succ)
                    stack.append(succ)
        return order

    def reverse_postorder(self):
        """Reverse postorder over reachable nodes (good worklist order)."""
        seen = set()
        postorder = []

        def dfs(start):
            stack = [(start, iter([succ for succ, _ in start.succs]))]
            seen.add(start.node_id)
            while stack:
                node, successors = stack[-1]
                advanced = False
                for succ in successors:
                    if succ.node_id not in seen:
                        seen.add(succ.node_id)
                        stack.append(
                            (succ, iter([nxt for nxt, _ in succ.succs]))
                        )
                        advanced = True
                        break
                if not advanced:
                    postorder.append(node)
                    stack.pop()

        dfs(self.entry)
        return list(reversed(postorder))

    def to_dot(self, name="cfg"):
        """Render the graph in Graphviz DOT format."""
        lines = ["digraph %s {" % name]
        for node in self.nodes:
            if node.kind == "instr":
                label = str(node.instr).replace('"', "'")
            elif node.kind == "branch":
                label = "branch %s" % node.cond_var
            else:
                label = node.kind
            lines.append('  n%d [label="%s"];' % (node.node_id, label))
        for node in self.nodes:
            for succ, label in node.succs:
                attr = ' [label="%s"]' % label if label else ""
                lines.append("  n%d -> n%d%s;" % (node.node_id, succ.node_id, attr))
        lines.append("}")
        return "\n".join(lines)


class _Builder:
    """Builds a CFG by walking the lowered block structure."""

    def __init__(self, lowered):
        self.lowered = lowered
        self.cfg = CFG(lowered)
        self.break_targets = []
        self.continue_targets = []

    def build(self):
        tail = self._lower_block(self.lowered.body, self.cfg.entry)
        if tail is not None:
            self.cfg.add_edge(tail, self.cfg.exit)
        return self.cfg

    def _lower_block(self, block, head):
        """Wire a lowered block after ``head``; return the new tail node
        (or None when control never falls through)."""
        current = head
        for item in block.items:
            if current is None:
                # Unreachable code after return/break; stop wiring.
                return None
            if isinstance(item, ir.Instr):
                node = self.cfg._new_node("instr", instr=item)
                self.cfg.add_edge(current, node)
                if isinstance(item, ir.ReturnInstr):
                    self.cfg.add_edge(node, self.cfg.exit)
                    current = None
                else:
                    current = node
            elif isinstance(item, ir.LoweredIf):
                current = self._lower_if(item, current)
            elif isinstance(item, ir.LoweredLoop):
                current = self._lower_loop(item, current)
            elif isinstance(item, ir.LoweredBreak):
                if self.break_targets:
                    self.cfg.add_edge(current, self.break_targets[-1])
                current = None
            elif isinstance(item, ir.LoweredContinue):
                if self.continue_targets:
                    self.cfg.add_edge(current, self.continue_targets[-1])
                current = None
            else:
                raise TypeError("unexpected lowered item %r" % type(item).__name__)
        return current

    def _lower_if(self, item, head):
        branch = self.cfg._new_node("branch", cond_var=item.cond_var)
        self.cfg.add_edge(head, branch)
        join = self.cfg._new_node("join")
        then_entry = self.cfg._new_node("join")  # landing pad for labeling
        self.cfg.add_edge(branch, then_entry, label="true")
        then_tail = self._lower_block(item.then_block, then_entry)
        if then_tail is not None:
            self.cfg.add_edge(then_tail, join)
        else_entry = self.cfg._new_node("join")
        self.cfg.add_edge(branch, else_entry, label="false")
        else_tail = self._lower_block(item.else_block, else_entry)
        if else_tail is not None:
            self.cfg.add_edge(else_tail, join)
        if not join.preds:
            return None
        return join

    def _lower_loop(self, item, head):
        header = self.cfg._new_node("join")
        after = self.cfg._new_node("join")
        update_entry = self.cfg._new_node("join")
        if item.post_test:
            body_entry = self.cfg._new_node("join")
            self.cfg.add_edge(head, body_entry)
            self.break_targets.append(after)
            self.continue_targets.append(header)
            body_tail = self._lower_block(item.body, body_entry)
            self.break_targets.pop()
            self.continue_targets.pop()
            if body_tail is not None:
                self.cfg.add_edge(body_tail, header)
            header_tail = self._lower_block(item.header, header)
            if header_tail is not None:
                branch = self.cfg._new_node("branch", cond_var=item.cond_var)
                self.cfg.add_edge(header_tail, branch)
                self.cfg.add_edge(branch, body_entry, label="true")
                self.cfg.add_edge(branch, after, label="false")
        else:
            self.cfg.add_edge(head, header)
            header_tail = self._lower_block(item.header, header)
            branch = self.cfg._new_node("branch", cond_var=item.cond_var)
            if header_tail is not None:
                self.cfg.add_edge(header_tail, branch)
            body_entry = self.cfg._new_node("join")
            self.cfg.add_edge(branch, body_entry, label="true")
            self.cfg.add_edge(branch, after, label="false")
            self.break_targets.append(after)
            self.continue_targets.append(update_entry)
            body_tail = self._lower_block(item.body, body_entry)
            self.break_targets.pop()
            self.continue_targets.pop()
            if body_tail is not None:
                self.cfg.add_edge(body_tail, update_entry)
            update_tail = self._lower_block(item.update, update_entry)
            if update_tail is not None:
                self.cfg.add_edge(update_tail, header)
        if not after.preds:
            return None
        return after


def build_cfg(program, class_decl, method_decl):
    """Lower a method and build its CFG (``cfg.lowered`` keeps the
    lowering)."""
    lowered = ir.lower_method(program, class_decl, method_decl)
    return _Builder(lowered).build()
