"""Static trace extraction for protocol mining.

For every client method, enumerate a bounded set of acyclic-ish CFG
paths (each back edge taken at most once per path) and project, per
tracked object (must-alias witness), the sequence of API calls made on
it.  Guard context is recorded: when a path passes through the true or
false edge of a branch whose condition came from a call on the same
object, subsequent events carry that (method, outcome) guard — this is
what lets the miner discover ``hasNext() == true`` preceding ``next()``.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.analysis import ir
from repro.analysis.alias import analyze_aliases
from repro.analysis.cfg import build_cfg

#: Per-method path budget; keeps enumeration linear-ish in practice.
MAX_PATHS_PER_METHOD = 64


@dataclass
class CallEvent:
    """One API call on a tracked object along one path."""

    receiver_class: str = ""
    method_name: str = ""
    #: the (method, outcome) guard active when the call happened, e.g.
    #: ("hasNext", True); None when unguarded.
    guard: Optional[Tuple[str, bool]] = None
    fresh: bool = False  # first event after the object's creation


@dataclass
class ObjectTrace:
    """The event sequence for one object along one path."""

    class_name: str = ""
    events: List[CallEvent] = field(default_factory=list)
    origin: str = ""  # "result" | "param" | "new" | "field"


class _PathWalker:
    """Depth-first path enumeration with per-path back-edge budget."""

    def __init__(self, cfg, alias, program, target_classes):
        self.cfg = cfg
        self.alias = alias
        self.program = program
        self.target_classes = target_classes
        self.traces = []
        self.paths = 0
        # Edges that retreat in reverse postorder carry the budget.  Every
        # cycle has one, reducible or not, and a loop's back edge always
        # does: its head is a DFS-tree ancestor of its tail.
        self._rpo_index = {
            node.node_id: position
            for position, node in enumerate(cfg.reverse_postorder())
        }

    def _is_back_edge(self, src, dst):
        return self._rpo_index.get(dst.node_id, 0) <= self._rpo_index.get(
            src.node_id, 0
        )

    def walk(self):
        # Iterative DFS (deep straight-line methods overflow recursion).
        stack = [(self.cfg.entry, _PathState(), frozenset())]
        while stack:
            if self.paths >= MAX_PATHS_PER_METHOD:
                break
            node, state, taken_back_edges = stack.pop()
            # Run forward through straight-line stretches without forking;
            # stop at branches, joins-of-interest, and back edges (those
            # need the budget bookkeeping below).
            while True:
                state = self._apply(node, state)
                if len(node.succs) != 1 or node.kind == "branch":
                    break
                succ = node.succs[0][0]
                if self._is_back_edge(node, succ):
                    break
                node = succ
            successors = node.succs
            if not successors:
                self._finish(state)
                continue
            for succ, label in successors:
                if self._is_back_edge(node, succ):
                    key = (node.node_id, succ.node_id)
                    if key in taken_back_edges:
                        continue
                    next_taken = taken_back_edges | {key}
                else:
                    next_taken = taken_back_edges
                branch_state = state
                if node.kind == "branch" and label in ("true", "false"):
                    branch_state = state.with_guard(
                        node.cond_var, label == "true"
                    )
                stack.append((succ, branch_state.fork(), next_taken))
        return self.traces

    def _finish(self, state):
        self.paths += 1
        for trace in state.objects.values():
            if trace.events:
                self.traces.append(trace)

    def _apply(self, node, state):
        if node.kind != "instr":
            return state
        instr = node.instr
        if not isinstance(instr, ir.Assign):
            return state
        source = instr.source
        state = state.fork()
        if isinstance(source, ir.NewObj):
            witness = self.alias.witness_after(node, instr.target)
            if source.class_name in self.target_classes:
                state.objects[witness] = ObjectTrace(
                    class_name=source.class_name, origin="new"
                )
        elif isinstance(source, ir.Call):
            self._apply_call(node, instr, source, state)
        return state

    def _apply_call(self, node, instr, call, state):
        receiver_class = call.static_class
        witness = (
            self.alias.witness_before(node, call.receiver)
            if call.receiver
            else None
        )
        resolved_class = self._resolve_protocol_class(receiver_class)
        if resolved_class is not None and witness is not None:
            trace = state.objects.get(witness)
            if trace is None:
                trace = ObjectTrace(class_name=resolved_class, origin="param")
                state.objects[witness] = trace
            guard = state.guards.get(witness)
            trace.events.append(
                CallEvent(
                    receiver_class=resolved_class,
                    method_name=call.method_name,
                    guard=guard,
                    fresh=not trace.events and trace.origin != "param",
                )
            )
            # The call's boolean result may become a guard on this object.
            state.tests[instr.target] = (witness, call.method_name)
        # Track protocol-class results (e.g. iterator()).
        result_class = self._result_class(call)
        if result_class in self.target_classes:
            result_witness = self.alias.witness_after(node, instr.target)
            state.objects[result_witness] = ObjectTrace(
                class_name=result_class, origin="result"
            )

    def _resolve_protocol_class(self, class_name):
        if class_name is None:
            return None
        for target in self.target_classes:
            if class_name == target or self.program.is_subtype(
                class_name, target
            ):
                return target
        return None

    def _result_class(self, call):
        if call.static_class is None:
            return None
        callee = self.program.resolve_method(
            call.static_class, call.method_name, len(call.args)
        )
        if callee is None or callee.method_decl.return_type is None:
            return None
        return callee.method_decl.return_type.name


class _PathState:
    """Per-path mining state (copy-on-write via fork)."""

    __slots__ = ("objects", "guards", "tests")

    def __init__(self):
        self.objects = {}  # witness -> ObjectTrace
        self.guards = {}  # witness -> (method, bool)
        self.tests = {}  # boolean var -> (witness, method)

    def fork(self):
        clone = _PathState()
        clone.objects = {
            key: ObjectTrace(
                class_name=value.class_name,
                events=list(value.events),
                origin=value.origin,
            )
            for key, value in self.objects.items()
        }
        clone.guards = dict(self.guards)
        clone.tests = dict(self.tests)
        return clone

    def with_guard(self, cond_var, outcome):
        clone = self.fork()
        test = clone.tests.get(cond_var)
        if test is not None:
            witness, method = test
            clone.guards[witness] = (method, outcome)
        return clone


def extract_traces(program, target_classes, methods=None):
    """Extract object traces for the given protocol classes.

    ``target_classes`` are the API classes whose protocols are being
    mined (e.g. ``{"Iterator"}``).  Returns a list of
    :class:`ObjectTrace`.
    """
    target_classes = set(target_classes)
    traces = []
    for method_ref in methods or program.methods_with_bodies():
        if method_ref.class_decl.name in target_classes:
            continue  # mine clients, not the API implementation
        cfg = build_cfg(
            program, method_ref.class_decl, method_ref.method_decl
        )
        alias = analyze_aliases(
            cfg, [p.name for p in method_ref.method_decl.params]
        )
        walker = _PathWalker(cfg, alias, program, target_classes)
        traces.extend(walker.walk())
    return traces
