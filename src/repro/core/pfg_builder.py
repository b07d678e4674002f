"""Construction of Permission Flow Graphs (paper §3.1).

The builder walks a method's CFG in reverse postorder, maintaining a
*front* per tracked object: the PFG node currently holding that object's
permission.  Objects are identified by the must-alias analysis's
witnesses, so reassignments between locals do not break the flow — the
paper: "a local must-alias analysis helps us track permission ... even if
those objects are reassigned to other local variables."

At CFG joins the fronts arriving on different paths meet in MERGE nodes;
at call sites and field stores permission passes through SPLIT nodes
(part given to the callee/field, part retained — the paper's two
differences between permission flow and data flow); permission returned
by callees re-enters through CALL_POST nodes into MERGE nodes.
"""

from repro.analysis import ir
from repro.analysis.alias import analyze_aliases
from repro.analysis.cfg import build_cfg
from repro.core.pfg import PFG, PFGNodeKind
from repro.resilience.limits import ResourceLimitError, recursion_guard

#: Classes never carrying a protocol (mirrors the checker's list).
_VALUE_CLASSES = frozenset(
    ["String", "Integer", "Long", "Boolean", "Character", "Object", "Double"]
)


class PFGBuilder:
    """Builds the PFG for one method."""

    def __init__(self, program, method_ref, cfg=None, limits=None):
        self.program = program
        self.method_ref = method_ref
        self._max_nodes = limits.cap("max_pfg_nodes") if limits else 0
        self.cfg = cfg or method_cfg(program, method_ref)
        self.alias = analyze_aliases(
            self.cfg, [p.name for p in method_ref.method_decl.params]
        )
        self.pfg = PFG(method_ref)
        self.fronts = {}  # cfg node_id -> {witness: pfg node}
        self.witness_class = {}  # witness -> class name
        self.merge_nodes = {}  # (cfg node_id, witness) -> merge node
        self._processed = set()

    # -- helpers -----------------------------------------------------------------

    def _is_protocol_class(self, class_name):
        if class_name is None or class_name in _VALUE_CLASSES:
            return False
        return self.program.lookup_class(class_name) is not None

    def _edge(self, src, dst, role=None):
        for edge in src.out_edges:
            if edge.dst is dst and edge.role == role:
                return edge
        return self.pfg.new_edge(src, dst, role)

    def _result_class(self, callee):
        return_type = callee.method_decl.return_type
        if return_type is None:
            return callee.class_decl.name
        name = return_type.name
        if name in (callee.method_decl.type_params or []) or name in (
            callee.class_decl.type_params or []
        ):
            # Generic return: recover the instantiation when the receiver's
            # class binds it; otherwise unknown.
            return None
        return name

    # -- main build --------------------------------------------------------------

    def build(self):
        for node in self.cfg.reverse_postorder():
            if self._max_nodes and self.pfg.node_count() > self._max_nodes:
                raise ResourceLimitError(
                    "pfg-nodes",
                    self.pfg.node_count(),
                    self._max_nodes,
                    self.method_ref.qualified_name,
                )
            front = self._incoming_front(node)
            if node.kind == "entry":
                front = self._seed_params(front)
            elif node.kind == "instr":
                front = self._apply_instr(node, front)
            elif node.kind == "exit":
                self._connect_postconditions(front)
            self.fronts[node.node_id] = front
            self._processed.add(node.node_id)
        self._connect_back_edges()
        return self.pfg

    def _seed_params(self, front):
        method = self.method_ref.method_decl
        targets = []
        if not method.is_static:
            targets.append(("this", self.method_ref.class_decl.name))
        for param in method.params:
            class_name = param.type.name if param.type is not None else None
            targets.append((param.name, class_name))
        synchronized_method = "synchronized" in method.modifiers
        for name, class_name in targets:
            if not self._is_protocol_class(class_name):
                continue
            witness = ("param", name)
            pre = self.pfg.new_node(
                PFGNodeKind.PARAM_PRE,
                "PRE %s" % name,
                class_name=class_name,
                target=name,
                line=method.line,
            )
            if synchronized_method and name == "this":
                # A synchronized method locks its receiver: H5's
                # thread-shared hint applies exactly as for sync blocks.
                pre.hints.add("sync-target")
            post = self.pfg.new_node(
                PFGNodeKind.PARAM_POST,
                "POST %s" % name,
                class_name=class_name,
                target=name,
                line=method.line,
            )
            self.pfg.param_pre[name] = pre
            self.pfg.param_post[name] = post
            front = dict(front)
            front[witness] = pre
            self.witness_class[witness] = class_name
        return front

    # -- joins ---------------------------------------------------------------------

    def _incoming_front(self, node):
        available = [
            (pred, label)
            for pred, label in node.preds
            if pred.node_id in self._processed
        ]
        if not node.preds:
            return {}
        has_back_edges = len(available) < len(node.preds)
        if len(node.preds) == 1:
            pred = node.preds[0][0]
            return dict(self.fronts.get(pred.node_id, {}))
        # Join point: merge per object, keyed by the join witness each
        # variable carries here.
        fact = self.alias._result.in_facts[node.node_id]
        front = {}
        if fact is None:
            return front
        seen_witnesses = set()
        for var, joined_witness in fact.items():
            if joined_witness in seen_witnesses:
                continue
            seen_witnesses.add(joined_witness)
            sources = []
            for pred, _ in available:
                pred_witness = self.alias.witness_after(pred, var)
                pred_front = self.fronts.get(pred.node_id, {}).get(pred_witness)
                if pred_front is not None and pred_front not in sources:
                    sources.append(pred_front)
            if not sources:
                continue
            if len(sources) == 1 and not has_back_edges:
                front[joined_witness] = sources[0]
                self.witness_class.setdefault(
                    joined_witness, sources[0].class_name
                )
                continue
            merge = self.merge_nodes.get((node.node_id, joined_witness))
            if merge is None:
                merge = self.pfg.new_node(
                    PFGNodeKind.MERGE,
                    "merge@%d" % node.node_id,
                    class_name=sources[0].class_name,
                )
                self.merge_nodes[(node.node_id, joined_witness)] = merge
            for source in sources:
                self._edge(source, merge)
            front[joined_witness] = merge
            self.witness_class.setdefault(joined_witness, sources[0].class_name)
        return front

    def _connect_back_edges(self):
        """Second pass: wire fronts flowing along CFG back edges."""
        # Only CFG nodes that own a merge node can gain an edge here: the
        # inner loop bails out unless ``merge_nodes`` holds an entry for
        # (node, witness).  Restricting the walk to those nodes keeps this
        # pass proportional to the number of joins rather than scanning
        # every statement's alias facts (quadratic in straight-line
        # methods), and — because we merely skip iterations that produced
        # nothing — the edge insertion order is unchanged.
        merge_node_ids = {node_id for node_id, _ in self.merge_nodes}
        if not merge_node_ids:
            return
        for node in self.cfg.nodes:
            if node.node_id not in merge_node_ids:
                continue
            for pred, _ in node.preds:
                if pred.node_id not in self._processed:
                    continue
                # A back edge is one whose target was processed first and
                # for which a merge node exists.
                fact = self.alias._result.in_facts[node.node_id]
                if fact is None:
                    continue
                for var, joined_witness in fact.items():
                    merge = self.merge_nodes.get((node.node_id, joined_witness))
                    if merge is None:
                        continue
                    pred_witness = self.alias.witness_after(pred, var)
                    pred_front = self.fronts.get(pred.node_id, {}).get(pred_witness)
                    if pred_front is not None and pred_front is not merge:
                        self._edge(pred_front, merge)

    # -- instruction effects -----------------------------------------------------------

    def _apply_instr(self, node, front):
        instr = node.instr
        front = dict(front)
        if isinstance(instr, ir.Assign):
            source = instr.source
            if isinstance(source, ir.NewObj):
                self._apply_new(node, instr, source, front)
            elif isinstance(source, ir.Call):
                self._apply_call(node, instr, source, front)
            elif isinstance(source, ir.FieldLoad):
                self._apply_field_load(node, instr, source, front)
            # Plain copies need no PFG effect: fronts are witness-keyed.
        elif isinstance(instr, ir.FieldStore):
            self._apply_field_store(node, instr, front)
        elif isinstance(instr, ir.ReturnInstr):
            self._apply_return(node, instr, front)
        elif isinstance(instr, ir.SyncEnter):
            witness = self.alias.witness_before(node, instr.lock)
            lock_front = front.get(witness)
            if lock_front is not None:
                lock_front.hints.add("sync-target")
        return front

    def _apply_new(self, node, instr, source, front):
        # Constructor arguments flow like call arguments, so ANEK can
        # infer constructor parameter specifications.
        ctor = self.program.resolve_constructor(
            source.class_name, len(source.args)
        )
        if ctor is not None and source.args:
            site = {
                "callee": ctor,
                "pre": {},
                "post": {},
                "result": None,
                "line": instr.line,
                "method_name": source.class_name,
            }
            param_names = [p.name for p in ctor.method_decl.params]
            for target_name, var in zip(param_names, source.args):
                self._flow_argument(
                    node, instr, source.class_name, target_name, var, ctor,
                    site, front,
                )
            if site["pre"] or site["post"]:
                self.pfg.call_sites.append(site)
        if not self._is_protocol_class(source.class_name):
            return
        witness = self.alias.witness_after(node, instr.target)
        new_node = self.pfg.new_node(
            PFGNodeKind.NEW,
            "new %s" % source.class_name,
            class_name=source.class_name,
            line=instr.line,
        )
        new_node.hints.add("constructor-result")
        front[witness] = new_node
        self.witness_class[witness] = source.class_name

    def _apply_call(self, node, instr, call, front):
        callee = None
        if call.static_class is not None:
            callee = self.program.resolve_method(
                call.static_class, call.method_name, len(call.args)
            )
        site = {"callee": callee, "pre": {}, "post": {}, "result": None,
                "line": instr.line, "method_name": call.method_name}
        # Receiver and arguments flow through split/merge pairs.
        flows = []
        if call.receiver is not None and (
            callee is None or not callee.method_decl.is_static
        ):
            flows.append(("this", call.receiver))
        param_names = None
        if callee is not None:
            param_names = [p.name for p in callee.method_decl.params]
        for position, arg in enumerate(call.args):
            if param_names is not None and position < len(param_names):
                flows.append((param_names[position], arg))
            else:
                flows.append(("#%d" % position, arg))
        for target_name, var in flows:
            self._flow_argument(
                node, instr, call.method_name, target_name, var, callee,
                site, front,
            )
        # Result node.
        result_class = None
        if callee is not None:
            result_class = self._result_class(callee)
        if result_class is None and callee is not None:
            # Generic returns (Iterator<T>.next()): usually not protocol.
            result_class = None
        if self._is_protocol_class(result_class):
            result = self.pfg.new_node(
                PFGNodeKind.CALL_RESULT,
                "result %s()" % call.method_name,
                class_name=result_class,
                callee=callee,
                target="result",
                line=instr.line,
            )
            witness = self.alias.witness_after(node, instr.target)
            front[witness] = result
            self.witness_class[witness] = result_class
            site["result"] = result
        self.pfg.call_sites.append(site)

    def _flow_argument(self, node, instr, method_name, target_name, var,
                       callee, site, front):
        """Wire one argument's permission through split/pre/post/merge."""
        witness = self.alias.witness_before(node, var)
        current = front.get(witness)
        if current is None:
            return
        class_name = current.class_name
        split = self.pfg.new_node(
            PFGNodeKind.SPLIT,
            "split@%s.%s" % (method_name, target_name),
            class_name=class_name,
            line=instr.line,
        )
        pre = self.pfg.new_node(
            PFGNodeKind.CALL_PRE,
            "pre %s(%s)" % (method_name, target_name),
            class_name=class_name,
            callee=callee,
            target=target_name,
            line=instr.line,
        )
        post = self.pfg.new_node(
            PFGNodeKind.CALL_POST,
            "post %s(%s)" % (method_name, target_name),
            class_name=class_name,
            callee=callee,
            target=target_name,
            line=instr.line,
        )
        retained = self.pfg.new_node(
            PFGNodeKind.RETAINED,
            "retained@%s.%s" % (method_name, target_name),
            class_name=class_name,
            line=instr.line,
        )
        merge = self.pfg.new_node(
            PFGNodeKind.MERGE,
            "merge@%s.%s" % (method_name, target_name),
            class_name=class_name,
            line=instr.line,
        )
        merge.hints.add("call-merge")
        self._edge(current, split)
        self._edge(split, pre, role="given")
        self._edge(split, retained, role="retained")
        self._edge(retained, merge)
        self._edge(post, merge)
        front[witness] = merge
        site["pre"][target_name] = pre
        site["post"][target_name] = post

    def _apply_field_load(self, node, instr, source, front):
        receiver_witness = (
            self.alias.witness_before(node, source.receiver)
            if source.receiver
            else None
        )
        receiver_front = front.get(receiver_witness)
        receiver_class = (
            receiver_front.class_name if receiver_front is not None else None
        )
        if receiver_class is None and source.receiver == "this":
            receiver_class = self.method_ref.class_decl.name
        field_class = None
        if receiver_class is not None:
            found = self.program.lookup_field(receiver_class, source.field_name)
            if found is not None:
                _, field = found
                if field.type is not None:
                    field_class = field.type.name
        if not self._is_protocol_class(field_class):
            return
        load = self.pfg.new_node(
            PFGNodeKind.FIELD_LOAD,
            "load %s" % source.field_name,
            class_name=field_class,
            line=instr.line,
        )
        witness = self.alias.witness_after(node, instr.target)
        front[witness] = load
        self.witness_class[witness] = field_class

    def _apply_field_store(self, node, instr, front):
        value_witness = self.alias.witness_before(node, instr.value)
        value_front = front.get(value_witness)
        receiver_witness = (
            self.alias.witness_before(node, instr.receiver)
            if instr.receiver
            else None
        )
        receiver_front = front.get(receiver_witness)
        if value_front is not None:
            split = self.pfg.new_node(
                PFGNodeKind.SPLIT,
                "split@store.%s" % instr.field_name,
                class_name=value_front.class_name,
                line=instr.line,
            )
            store = self.pfg.new_node(
                PFGNodeKind.FIELD_STORE,
                "store %s" % instr.field_name,
                class_name=value_front.class_name,
                line=instr.line,
            )
            self._edge(value_front, split)
            self._edge(split, store, role="given")
            front[value_witness] = split  # next edge out is the retained flow
            if receiver_front is not None:
                self.pfg.field_store_receivers.append((store, receiver_front))
        elif receiver_front is not None:
            store = self.pfg.new_node(
                PFGNodeKind.FIELD_STORE,
                "store %s" % instr.field_name,
                line=instr.line,
            )
            self.pfg.field_store_receivers.append((store, receiver_front))

    def _apply_return(self, node, instr, front):
        if instr.value is None:
            return
        witness = self.alias.witness_before(node, instr.value)
        current = front.get(witness)
        if current is None:
            return
        if self.pfg.result_node is None:
            self.pfg.result_node = self.pfg.new_node(
                PFGNodeKind.RETURN,
                "RETURN result",
                class_name=current.class_name,
                target="result",
                line=instr.line,
            )
        self._edge(current, self.pfg.result_node)
        front.pop(witness, None)

    def _connect_postconditions(self, front):
        for name, post in self.pfg.param_post.items():
            witness = ("param", name)
            current = front.get(witness)
            if current is not None:
                self._edge(current, post)
            else:
                # The parameter's object was consumed or re-keyed by joins;
                # fall back to connecting any join witness derived from it.
                for witness_key, node in front.items():
                    if (
                        isinstance(witness_key, tuple)
                        and len(witness_key) >= 2
                        and witness_key[0] == "join"
                        and witness_key[1] == name
                    ):
                        self._edge(node, post)
                        break


def method_cfg(program, method_ref):
    """Lower one method and build its CFG (``cfg.lowered`` keeps the
    lowering).  Both walk the AST recursively; a method body deep enough
    to blow the interpreter stack must surface as a typed, quarantinable
    failure."""
    with recursion_guard("pfg-build-depth", "CFG/alias construction"):
        return build_cfg(program, method_ref.class_decl, method_ref.method_decl)


def build_pfg(program, method_ref, cfg=None, limits=None):
    """Build the PFG for one method (from ``cfg`` when the caller already
    built it with :func:`method_cfg`)."""
    return PFGBuilder(program, method_ref, cfg=cfg, limits=limits).build()
