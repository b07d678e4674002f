"""Whole-program call graph over resolved methods.

ANEK-INFER's worklist needs to know, when a method summary changes, which
callers depend on it.  The call graph maps each method to its call sites
and supports reverse (callee -> callers) queries.  Resolution is static:
calls dispatch on the receiver's static type, matching the paper's
analysis (PLURAL specs attach to static types and supertype specs apply
to subtypes).
"""

from repro.analysis import ir
from repro.analysis.ir import lower_method


class CallSite:
    """One resolved call site: caller method, callee method, and line."""

    __slots__ = ("caller", "callee", "line")

    def __init__(self, caller, callee, line):
        self.caller = caller
        self.callee = callee
        self.line = line

    def __repr__(self):
        return "CallSite(%s -> %s @%d)" % (
            self.caller.qualified_name,
            self.callee.qualified_name,
            self.line,
        )


class CallGraph:
    """Caller/callee indexes over the whole program."""

    def __init__(self):
        self.sites = []
        self._by_caller = {}
        self._by_callee = {}

    def add(self, site):
        self.sites.append(site)
        self._by_caller.setdefault(site.caller, []).append(site)
        self._by_callee.setdefault(site.callee, []).append(site)

    def callees_of(self, method_ref):
        """Call sites inside ``method_ref``."""
        return self._by_caller.get(method_ref, [])

    def callers_of(self, method_ref):
        """Call sites that invoke ``method_ref``."""
        return self._by_callee.get(method_ref, [])

    def caller_methods_of(self, method_ref):
        """Distinct methods that call ``method_ref``."""
        seen = []
        for site in self.callers_of(method_ref):
            if site.caller not in seen:
                seen.append(site.caller)
        return seen


def dependency_edges(graph, members):
    """Caller -> callee edges of ``graph`` restricted to ``members``.

    Returns ``{method_ref: [callee_ref, ...]}`` with every member present
    as a key and callee lists deduplicated in first-call order, so the
    result is deterministic given the members' order.
    """
    member_set = set(members)
    edges = {ref: [] for ref in members}
    for site in graph.sites:
        if site.caller not in member_set or site.callee not in member_set:
            continue
        bucket = edges[site.caller]
        if site.callee not in bucket:
            bucket.append(site.callee)
    return edges


def strongly_connected_components(edges):
    """Tarjan's SCC algorithm (iterative) over ``{node: [successor]}``.

    Components are emitted in reverse topological order of the
    condensation: every component appears after all components it can
    reach.  Both the component order and the member order within each
    component are deterministic functions of ``edges``'s iteration order.
    """
    index_of = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    counter = [0]

    for root in edges:
        if root in index_of:
            continue
        # Explicit DFS stack of (node, iterator position).
        work = [(root, 0)]
        while work:
            node, pos = work.pop()
            if pos == 0:
                index_of[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            successors = edges.get(node, [])
            for next_pos in range(pos, len(successors)):
                succ = successors[next_pos]
                if succ not in index_of:
                    work.append((node, next_pos + 1))
                    work.append((succ, 0))
                    recurse = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if recurse:
                continue
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member is node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def condensation_levels(graph, members, sort_key=None):
    """Partition ``members`` into SCC-condensation levels.

    Level ``i`` holds every method whose SCC only depends (through
    caller -> callee edges) on SCCs in levels ``< i``; level 0 methods
    call no other member method.  Two methods in the same level never
    exchange summaries directly *across* SCCs, so a level-synchronous
    scheduler may solve a whole level concurrently against a snapshot of
    the summary store (intra-SCC edges — recursion — resolve across
    rounds, Jacobi style).

    Returns ``(levels, scc_count)`` where ``levels`` is a list of lists
    of MethodRefs; each level is sorted by ``sort_key`` (default:
    qualified method name) so the merge order downstream is
    deterministic.
    """
    members = list(members)
    edges = dependency_edges(graph, members)
    components = strongly_connected_components(edges)
    component_of = {}
    for component in components:
        marker = id(component)
        for member in component:
            component_of[member] = marker
    depth_of = {}
    component_members = {id(c): c for c in components}
    # Tarjan emits callees before callers, so every component's callee
    # components already have a depth when it is visited.
    for component in components:
        marker = id(component)
        depth = 0
        for member in component:
            for callee in edges[member]:
                callee_marker = component_of[callee]
                if callee_marker == marker:
                    continue
                depth = max(depth, depth_of[callee_marker] + 1)
        depth_of[marker] = depth
    if sort_key is None:
        sort_key = lambda ref: ref.qualified_name  # noqa: E731
    max_depth = max(depth_of.values(), default=-1)
    levels = [[] for _ in range(max_depth + 1)]
    for marker, component in component_members.items():
        levels[depth_of[marker]].extend(component)
    for level in levels:
        level.sort(key=sort_key)
    return levels, len(components)


def method_call_targets(program, lowered):
    """The resolved ``(callee_ref, line)`` pairs of one lowered method, in
    source order.

    Method calls dispatch on the receiver's static class; constructor
    calls on the allocated class.  Unresolved calls are dropped (nothing
    downstream of the graph consumes them).  This is the per-method slice
    the persistent cache stores; refs later travel as stable method keys.
    """
    targets = []
    for instr in iter_instrs(lowered.body):
        if not isinstance(instr, ir.Assign):
            continue
        source = instr.source
        callee = None
        if isinstance(source, ir.Call):
            if source.static_class is not None:
                callee = program.resolve_method(
                    source.static_class, source.method_name, len(source.args)
                )
        elif isinstance(source, ir.NewObj):
            callee = program.resolve_constructor(
                source.class_name, len(source.args)
            )
        if callee is not None:
            targets.append((callee, instr.line))
    return targets


def call_graph_from_targets(targets_by_method):
    """A :class:`CallGraph` from per-method resolved targets.

    ``targets_by_method`` maps caller ref -> ``[(callee_ref, line), ...]``
    in source order: what :func:`method_call_targets` produces and the
    cache round-trips.  Inference builds its graph this way from the
    targets its PFG stage resolved.
    """
    graph = CallGraph()
    for caller_ref, targets in targets_by_method.items():
        for callee_ref, line in targets:
            graph.add(CallSite(caller_ref, callee_ref, line))
    return graph


def build_call_graph(program):
    """The whole program's call graph, lowering every method once (for
    reports and tests; inference does not call it)."""
    return call_graph_from_targets(
        {
            ref: method_call_targets(
                program, lower_method(program, ref.class_decl, ref.method_decl)
            )
            for ref in program.methods_with_bodies()
        }
    )


def iter_instrs(block):
    """Yield every IR instruction in a lowered block tree."""
    for item in block.items:
        if isinstance(item, ir.Instr):
            yield item
        elif isinstance(item, ir.LoweredIf):
            for instr in iter_instrs(item.then_block):
                yield instr
            for instr in iter_instrs(item.else_block):
                yield instr
        elif isinstance(item, ir.LoweredLoop):
            for instr in iter_instrs(item.header):
                yield instr
            for instr in iter_instrs(item.body):
                yield instr
            for instr in iter_instrs(item.update):
                yield instr
