"""The Permission Flow Graph (paper §3.1).

A PFG is a directed graph of permission flow through one method.  Nodes
represent points where a permission exists (parameter pre/postconditions,
call-site pre/post/result nodes, allocations, field accesses, splits and
merges); edges represent flow.  Permission flow differs from data flow in
exactly the two ways the paper notes: permission is *retained* at call
sites and field assignments, and permission flows *back out* of call
arguments when the callee returns.
"""


class PFGNodeKind:
    PARAM_PRE = "param-pre"
    PARAM_POST = "param-post"
    SPLIT = "split"
    RETAINED = "retained"
    MERGE = "merge"
    CALL_PRE = "call-pre"
    CALL_POST = "call-post"
    CALL_RESULT = "call-result"
    NEW = "new"
    FIELD_LOAD = "field-load"
    FIELD_STORE = "field-store"
    RETURN = "return"


class PFGNode:
    """One node of a PFG.

    ``class_name`` identifies the protocol class whose permission flows
    through (None when unknown).  Call-related nodes carry ``callee`` (a
    MethodRef or None) and ``target`` (``"this"``, a parameter name, or
    ``"result"``) so that summaries can be linked.  ``hints`` carries
    heuristic flags set during construction (e.g. ``"sync-target"``).
    """

    __slots__ = (
        "node_id",
        "kind",
        "label",
        "class_name",
        "callee",
        "target",
        "line",
        "hints",
        "out_edges",
        "in_edges",
    )

    def __init__(self, node_id, kind, label, class_name=None, callee=None,
                 target=None, line=0):
        self.node_id = node_id
        self.kind = kind
        self.label = label
        self.class_name = class_name
        self.callee = callee
        self.target = target
        self.line = line
        self.hints = set()
        self.out_edges = []
        self.in_edges = []

    def __repr__(self):
        return "PFGNode(%d, %s, %s)" % (self.node_id, self.kind, self.label)


class PFGEdge:
    """A directed permission-flow edge."""

    __slots__ = ("src", "dst", "role")

    def __init__(self, src, dst, role=None):
        self.src = src
        self.dst = dst
        self.role = role  # "given" | "retained" | None

    def __repr__(self):
        return "PFGEdge(%s -> %s%s)" % (
            self.src.label,
            self.dst.label,
            ", %s" % self.role if self.role else "",
        )


class PFG:
    """The permission flow graph for one method."""

    def __init__(self, method_ref):
        self.method_ref = method_ref
        self.nodes = []
        self.edges = []
        # Boundary nodes for summary exchange.
        self.param_pre = {}  # target name -> node
        self.param_post = {}  # target name -> node
        self.result_node = None
        # Field-store receiver pairs for constraint L3.
        self.field_store_receivers = []  # (store_node, receiver_node)
        # Call-site boundary nodes for APPLYSUMMARY: list of dicts
        # {"callee": MethodRef|None, "pre": {target: node},
        #  "post": {target: node}, "result": node|None}
        self.call_sites = []

    def new_node(self, kind, label, **kwargs):
        node = PFGNode(len(self.nodes), kind, label, **kwargs)
        self.nodes.append(node)
        return node

    def new_edge(self, src, dst, role=None):
        edge = PFGEdge(src, dst, role)
        self.edges.append(edge)
        src.out_edges.append(edge)
        dst.in_edges.append(edge)
        return edge

    # -- queries ----------------------------------------------------------------

    def node_count(self):
        return len(self.nodes)

    def edge_count(self):
        return len(self.edges)

    def to_dot(self, name=None):
        """Figure 6-style DOT rendering."""
        title = name or (
            self.method_ref.qualified_name.replace(".", "_")
            if self.method_ref
            else "pfg"
        )
        lines = ["digraph %s {" % title, "  rankdir=TB;"]
        shape_of = {
            PFGNodeKind.SPLIT: "triangle",
            PFGNodeKind.MERGE: "invtriangle",
            PFGNodeKind.PARAM_PRE: "box",
            PFGNodeKind.PARAM_POST: "box",
            PFGNodeKind.RETURN: "box",
        }
        for node in self.nodes:
            shape = shape_of.get(node.kind, "ellipse")
            lines.append(
                '  n%d [label="%s", shape=%s];'
                % (node.node_id, node.label.replace('"', "'"), shape)
            )
        for edge in self.edges:
            attr = ' [label="%s"]' % edge.role if edge.role else ""
            lines.append(
                "  n%d -> n%d%s;" % (edge.src.node_id, edge.dst.node_id, attr)
            )
        lines.append("}")
        return "\n".join(lines)

    def describe(self):
        """A compact text listing (used by the Figure 6 bench/example)."""
        lines = ["PFG for %s" % (self.method_ref.qualified_name if self.method_ref else "?")]
        lines.append("  %d nodes, %d edges" % (self.node_count(), self.edge_count()))
        for node in self.nodes:
            lines.append("  [%d] %s %s" % (node.node_id, node.kind, node.label))
            for edge in node.out_edges:
                role = " (%s)" % edge.role if edge.role else ""
                lines.append("      -> [%d] %s%s" % (edge.dst.node_id, edge.dst.label, role))
        return "\n".join(lines)

    def __repr__(self):
        return "PFG(%s, %d nodes, %d edges)" % (
            self.method_ref.qualified_name if self.method_ref else "?",
            len(self.nodes),
            len(self.edges),
        )
