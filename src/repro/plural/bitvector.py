"""Tier-1 bit-vector typestate checking (the checker fast path).

The full PLURAL checker (:mod:`repro.plural.checker`) interprets every
method with dict-based :class:`~repro.plural.context.Context` facts — a
worklist fixpoint that copies contexts at every transfer.  On scaled
corpora the check stage dominates once inference is cached, so this
module compiles each method into a *bit-vector machine plan*:

* object-typed locals become **lanes**; a lane's flow fact is a pair of
  small integers (permission-kind id, state id in a per-class interned
  state table), so a whole context is one flat tuple;
* every call site's requires clause becomes a precomputed **uint64
  state mask** (bit ``i`` set iff interned state ``i`` satisfies the
  clause) plus a kind-requirement id;
* every call's effect on a lane (:meth:`PluralChecker._after_call_perm`)
  is precompiled into a per-held-kind **transfer row** — new kind id and
  keep-state/constant-state action — so the fixpoint never consults
  specs;
* plans are deduplicated by structural signature: the corpus's thousands
  of structurally identical methods (``scan0..scanN``, filler ``opN``)
  share one fixpoint;
* all surviving site checks across *all* plans are batched into flat
  numpy arrays and swept in one vectorized pass
  (``np.take`` over a flattened kind-satisfaction table,
  ``np.bitwise_and`` of state bits against allowed masks).

Tier 1 never emits warnings.  It proves whole methods warning-free; a
method whose plan cannot be built exactly (aliasing inside loops,
rebound locals, >64 interned states) or whose plan has any failing site
is *residue* and is re-checked by the unmodified full checker, so the
tiered warning set is bit-identical to the full checker's by
construction (see DESIGN §14 for the exactness argument).

A method's verdict depends on that method alone: each plan interns
states in machines of its own, so no other method of the partition can
push it past 64 states or renumber its states, and plans are shared
only between methods with equal signatures.  That is what lets the
persistent cache replay a verdict (DESIGN §9).
"""

from collections import deque

import numpy as np

from repro.analysis import ir
from repro.analysis.cfg import build_cfg
from repro.permissions import kinds
from repro.permissions.splitting import best_retained
from repro.permissions.states import ALIVE
from repro.plural.context import Guard, StateTest, kind_join


# ---------------------------------------------------------------------------
# Kind encoding — shared across every machine
# ---------------------------------------------------------------------------

#: Kind ids 0..4 follow ALL_KINDS; 5 encodes "no permission" (None).
KIND_LIST = list(kinds.ALL_KINDS)
KIND_ID = {kind: index for index, kind in enumerate(KIND_LIST)}
KIND_ID[None] = len(KIND_LIST)
ID_KIND = KIND_LIST + [None]
NKIND = len(ID_KIND)

#: Requirement ids 0..4 are kind requirements; 5 is the field-store
#: "not read-only" requirement (held may also be None, which passes).
REQ_NOT_READONLY = len(KIND_LIST)
NREQ = REQ_NOT_READONLY + 1

ALL_ONES = (1 << 64) - 1

#: KSAT[held_id][req_id] — does holding ``held`` satisfy requirement
#: ``req``?  Mirrors the checker: a kind requirement needs a held kind
#: that ``kinds.satisfies`` it (None never does); the read-only check
#: passes unless the held kind is a READ_ONLY kind.
KSAT = [
    [
        (
            held is None or held not in kinds.READ_ONLY_KINDS
            if req == REQ_NOT_READONLY
            else held is not None and kinds.satisfies(held, ID_KIND[req])
        )
        for req in range(NREQ)
    ]
    for held in ID_KIND
]

#: KJOIN[a][b] — kind id of kind_join(a, b).
KJOIN = [
    [KIND_ID[kind_join(ID_KIND[a], ID_KIND[b])] for b in range(NKIND)]
    for a in range(NKIND)
]


class Residue(Exception):
    """A method (or plan) the bit abstraction cannot prove exactly."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Per-class state machines
# ---------------------------------------------------------------------------


class Machine:
    """Interned state table + lattice tables for one class.

    ``space`` is the class's :class:`StateSpace` or None (undeclared
    class / unknown result class).  The lattice operations *call the
    space's own functions* over the interned names and memoize, so the
    integer semantics is the checker's semantics by construction.  A
    space-less machine mirrors ``refine_state(..., state_space=None)``
    (replace always) and the checker's join fallback (equal keeps,
    different goes to ALIVE).
    """

    def __init__(self, class_name, space):
        self.class_name = class_name
        self.space = space
        self.states = [ALIVE]
        self.index = {ALIVE: 0}
        if space is not None:
            for state in space.states:
                self.intern(state)
        self._join = {}
        self._meet = {}

    def intern(self, state):
        if state is None:
            state = ALIVE
        sid = self.index.get(state)
        if sid is None:
            if len(self.states) >= 64:
                raise Residue("state-overflow")
            sid = len(self.states)
            self.states.append(state)
            self.index[state] = sid
        return sid

    def join(self, a, b):
        """State id after a path join (mirrors Context.join)."""
        if a == b:
            return a
        key = (a, b)
        sid = self._join.get(key)
        if sid is None:
            if self.space is None:
                sid = 0  # different states, no space: ALIVE
            else:
                sid = self.intern(self.space.join(self.states[a], self.states[b]))
            self._join[key] = sid
        return sid

    def meet_or_replace(self, current, refined):
        """State id after refine_state(current, refined)."""
        key = (current, refined)
        sid = self._meet.get(key)
        if sid is None:
            if self.space is None:
                sid = refined
            else:
                met = self.space.meet(self.states[current], self.states[refined])
                sid = refined if met is None else self.intern(met)
            self._meet[key] = sid
        return sid

    def signature(self):
        """Structural identity (for plan dedup across same-shape classes)."""
        if self.space is None:
            hierarchy = None
        else:
            hierarchy = tuple(sorted(self.space.parent_of.items()))
        return (tuple(self.states), hierarchy)


# ---------------------------------------------------------------------------
# Method plans
# ---------------------------------------------------------------------------

# Fixpoint/reporting ops (per CFG node, executed in order):
#   ("site", lane_or_None, req_id, mask)           reporting only
#   ("update", lane, rows)  rows[held_id] = (new_kind_id, keep, const_sid)
#   ("bindc", lane, kind_id, state_id)             constant rebind
#   ("weaken", lane)                               exclusive -> share


class Plan:
    """One compiled method: lanes, node ops, edge refinements."""

    __slots__ = (
        "lanes",  # list of Machine, one per lane
        "entry",  # tuple of (kind_id, state_id) per lane
        "nodes",  # list of (ops, preds, succs); preds = ((idx|-1, refs), ...)
        "entry_idx",
        "exit_idx",
        "rpo",  # worklist seed order (indices into nodes)
        "site_count",
        "signature",
    )


class _PlanBuilder:
    """Compile one method into a :class:`Plan`, or raise :class:`Residue`."""

    def __init__(self, host, method_ref):
        self.host = host
        self.checker = host.checker
        self.ref = method_ref
        self.site_count = 0
        self._machines = {}

    def machine(self, class_name):
        """This plan's machine for ``class_name`` (never shared with
        another method's plan)."""
        machine = self._machines.get(class_name)
        if machine is None:
            machine = Machine(class_name, self.checker.state_space(class_name))
            self._machines[class_name] = machine
        return machine

    # -- classification ------------------------------------------------------

    def build(self):
        checker = self.checker
        ref = self.ref
        cfg = build_cfg(checker.program, ref.class_decl, ref.method_decl)
        reachable = cfg.reachable_nodes()
        rset = {node.node_id for node in reachable}

        # Entry lanes mirror entry_context: receiver + non-primitive params.
        spec = checker.spec_of(ref)
        entry_vars = []  # (var, kind, state_name, class_name)
        method = ref.method_decl
        if not method.is_static:
            clauses = spec.required_for("this")
            if clauses:
                clause = clauses[0]
                entry_vars.append(
                    ("this", clause.kind, clause.state, ref.class_decl.name)
                )
            else:
                entry_vars.append(
                    ("this", checker.default_this_kind, ALIVE, ref.class_decl.name)
                )
        for param in method.params:
            class_name = param.type.name if param.type is not None else None
            if not checker._is_protocol_class(class_name) and class_name not in (
                None,
            ):
                if param.type is not None and param.type.is_primitive:
                    continue
            clauses = spec.required_for(param.name)
            if clauses:
                clause = clauses[0]
                entry_vars.append((param.name, clause.kind, clause.state, class_name))
            else:
                entry_vars.append((param.name, None, ALIVE, class_name))
        entry_names = {}
        for var, kind, state, class_name in entry_vars:
            if var in entry_names:
                raise Residue("duplicate-entry-binding")
            entry_names[var] = (kind, state, class_name)

        instr_nodes = [n for n in reachable if n.kind == "instr"]

        # Iterate classification + alias validation to a fixpoint: object
        # binds can only flip to scalar (alias of a later-invalidated
        # var, field load whose receiver turns out unbound), so this
        # terminates.
        scalar_forced = set()
        rpo = cfg.reverse_postorder()
        tin, tout = _dominance_intervals(rpo)
        self.entry_id = cfg.entry.node_id
        cycle_cache = []

        def on_cycle_set():
            if not cycle_cache:
                cycle_cache.append(_cycle_nodes(rpo, tin, tout))
            return cycle_cache[0]

        for _ in range(len(instr_nodes) + len(entry_names) + 2):
            binder, alias, alias_node, klass = self._classify(
                instr_nodes, entry_names, scalar_forced
            )
            invalid = self._invalid_aliases(
                alias, alias_node, binder, tin, tout, on_cycle_set
            )
            if not invalid:
                break
            scalar_forced.update(invalid)
        else:  # pragma: no cover - fixpoint bound is structural
            raise Residue("classification-divergence")

        # Lane assignment: aliases share the aliased var's lane.
        lane_of = {}
        lanes = []

        def lane_for(var):
            if var in lane_of:
                return lane_of[var]
            if var in alias:
                lane = lane_for(alias[var])
            else:
                lane = len(lanes)
                lanes.append(self.machine(klass[var]))
            lane_of[var] = lane
            return lane

        for var in klass:
            lane_for(var)

        def_node = {}  # var -> node_id whose strict dominance means "bound"
        for var in entry_names:
            if var in klass:
                def_node[var] = cfg.entry.node_id
        for var, node_id in binder.items():
            def_node[var] = node_id
        for var, node_id in alias_node.items():
            if var in alias:
                def_node[var] = node_id

        def bound_at(var, node_id):
            """cell_of(var) is not None in the node's in-fact."""
            if var not in klass:
                return False
            d = def_node[var]
            return d != node_id and tin[d] <= tin[node_id] <= tout[d]

        # -- op construction with static test-environment propagation ----
        plan_idx = {node.node_id: i for i, node in enumerate(reachable)}
        ops = [[] for _ in reachable]
        edge_refs = {}  # (plan_idx, label) -> ((lane, sid), ...)
        env_out = {}
        for node in rpo:
            idx = plan_idx[node.node_id]
            preds = [
                (p, l) for p, l in node.preds if p.node_id in rset
            ]
            if len(preds) == 1:
                env = dict(env_out.get(preds[0][0].node_id, ()) or {})
            else:
                env = {}
            if node.kind == "branch":
                guard = env.get(node.cond_var)
                if guard is not None:
                    for label in ("true", "false"):
                        refs = []
                        for lane, state in guard.refinements(label == "true"):
                            if state is None:
                                continue
                            machine = lanes[lane]
                            refs.append((lane, machine.intern(state)))
                        if refs:
                            edge_refs[(idx, label)] = tuple(refs)
            elif node.kind == "instr":
                env = self._compile_instr(
                    node, env, ops[idx], klass, lane_of, lanes, bound_at
                )
            env_out[node.node_id] = env

        # Exit postcondition sites (kind-only, mirrors _check_exit).  An
        # unreachable exit (infinite loop) has a None in-fact in the full
        # checker, which skips the check — collect_sites does the same.
        if cfg.exit.node_id in plan_idx:
            exit_ops = ops[plan_idx[cfg.exit.node_id]]
            targets = ["this"] + [param.name for param in method.params]
            for target in targets:
                clauses = spec.ensured_for(target)
                if not clauses:
                    continue
                clause = clauses[0]
                lane = lane_of.get(target) if target in klass else None
                self._site(exit_ops, lane, KIND_ID[clause.kind], ALL_ONES)

        plan = Plan()
        plan.lanes = lanes
        entry_fact = [(KIND_ID[None], 0)] * len(lanes)
        for var, (kind, state, _class_name) in entry_names.items():
            if var in klass:
                lane = lane_of[var]
                entry_fact[lane] = (KIND_ID[kind], lanes[lane].intern(state))
        plan.entry = tuple(entry_fact)
        plan.nodes = []
        for node in reachable:
            idx = plan_idx[node.node_id]
            preds = []
            for pred, label in node.preds:
                pidx = plan_idx.get(pred.node_id, -1)
                refs = edge_refs.get((pidx, label)) if pidx >= 0 else None
                preds.append((pidx, refs))
            succs = tuple(
                plan_idx[s.node_id] for s, _ in node.succs if s.node_id in rset
            )
            plan.nodes.append((tuple(ops[idx]), tuple(preds), succs))
        plan.entry_idx = plan_idx[cfg.entry.node_id]
        plan.exit_idx = plan_idx.get(cfg.exit.node_id, -1)
        plan.rpo = tuple(plan_idx[node.node_id] for node in rpo)
        plan.site_count = self.site_count
        plan.signature = self._signature(plan)
        return plan

    def _classify(self, instr_nodes, entry_names, scalar_forced):
        """var -> class (object vars only), binder nodes, alias edges."""
        checker = self.checker
        klass = {}  # object var -> class name (may be None)
        binder = {}  # object var -> binding node_id (non-entry, non-alias)
        alias = {}  # var -> aliased var
        alias_node = {}  # alias var -> its assign node_id
        for var, (_kind, _state, class_name) in entry_names.items():
            klass[var] = class_name
        scalars = set(scalar_forced)

        def as_object(target, node_id, class_name):
            if target in scalars:
                raise Residue("class-switch")
            if target in entry_names:
                raise Residue("rebind-entry")
            if target in alias:
                raise Residue("multi-binding")
            if target in binder and binder[target] != node_id:
                raise Residue("multi-binding")
            if target in klass and klass[target] != class_name:
                raise Residue("multi-binding")
            binder[target] = node_id
            klass[target] = class_name

        def as_scalar(target):
            if target in klass and target not in scalar_forced:
                raise Residue("class-switch")
            if target in entry_names:
                raise Residue("rebind-entry")
            scalars.add(target)

        for _ in range(len(instr_nodes) + 2):
            changed = False
            for node in instr_nodes:
                instr = node.instr
                if not isinstance(instr, ir.Assign):
                    continue
                target = instr.target
                source = instr.source
                was_object = target in klass
                was_scalar = target in scalars
                if isinstance(source, ir.UseVar):
                    name = source.name
                    if target in scalar_forced:
                        as_scalar(target)
                    elif name in klass:
                        if target in alias and alias[target] != name:
                            raise Residue("multi-binding")
                        if target in binder or target in entry_names:
                            raise Residue("multi-binding")
                        alias[target] = name
                        alias_node[target] = node.node_id
                        klass[target] = klass[name]
                    elif name in scalars:
                        as_scalar(target)
                    # else: source still unclassified; retry next pass.
                elif isinstance(source, ir.NewObj):
                    as_object(target, node.node_id, source.class_name)
                elif isinstance(source, ir.Call):
                    callee = None
                    if source.static_class is not None:
                        callee = checker.program.resolve_method(
                            source.static_class,
                            source.method_name,
                            len(source.args),
                        )
                    if callee is None:
                        as_object(target, node.node_id, None)
                    else:
                        spec = checker.spec_of(callee)
                        class_name = checker._result_class(callee)
                        if spec.ensured_for("result") or checker._is_protocol_class(
                            class_name
                        ):
                            as_object(target, node.node_id, class_name)
                        else:
                            as_scalar(target)
                elif isinstance(source, ir.FieldLoad):
                    receiver = source.receiver
                    field_class = None
                    field_kind = None
                    if receiver is not None and receiver in klass:
                        owner_class = klass[receiver]
                        if owner_class is not None:
                            found = checker.program.lookup_field(
                                owner_class, source.field_name
                            )
                            if found is not None:
                                _owner, field = found
                                field_class = (
                                    field.type.name
                                    if field.type is not None
                                    else None
                                )
                                for annotation in field.annotations:
                                    if annotation.name == "Perm":
                                        field_kind = annotation.argument("value")
                    if checker._is_protocol_class(field_class):
                        if field_kind is not None and field_kind not in KIND_ID:
                            raise Residue("odd-field-kind")
                        as_object(target, node.node_id, field_class)
                    elif receiver is None or receiver in klass or receiver in scalars:
                        as_scalar(target)
                    # else: receiver unclassified; retry next pass.
                else:
                    as_scalar(target)
                if (target in klass) != was_object or (target in scalars) != was_scalar:
                    changed = True
            if not changed:
                break
        # Anything never classified is a never-assigned use: full binds
        # it scalar on first touch (cell_of None), so no lane.
        return binder, alias, alias_node, klass

    def _invalid_aliases(self, alias, alias_node, binder, tin, tout, on_cycle_set):
        """Aliases the lane abstraction cannot share exactly.

        ``y = x`` shares x's lane only when (a) x's binding strictly
        dominates the alias node (full's cell_of(x) is not None there,
        so bind_alias actually fires) and (b) the alias node is not on a
        CFG cycle (re-executing the alias against a re-bound x would
        decouple the runtime cells).  Everything else flips y to scalar
        — which is exactly full's bind_scalar fallback for (a); (b) is
        conservative residue-by-scalar (any later object use of y then
        routes the method to tier 2 via a kind-None site).
        """
        invalid = set()
        if not alias:
            return invalid
        on_cycle = on_cycle_set()
        entry_id = self.entry_id
        for target, node_id in alias_node.items():
            if target not in alias:
                continue
            source = alias[target]
            d = binder.get(source)
            if d is None:
                d = alias_node.get(source, entry_id)
            dominated = d != node_id and tin[d] <= tin[node_id] <= tout[d]
            if not dominated:
                invalid.add(target)
            elif node_id in on_cycle:
                raise Residue("alias-in-loop")
        return invalid

    # -- per-instruction op compilation --------------------------------------

    def _site(self, ops, lane, req_id, mask):
        ops.append(("site", lane, req_id, mask))
        self.site_count += 1

    def _compile_instr(self, node, env, ops, klass, lane_of, lanes, bound_at):
        checker = self.checker
        instr = node.instr
        if isinstance(instr, ir.Assign):
            target = instr.target
            source = instr.source
            if isinstance(source, ir.UseVar):
                # A valid alias shares the lane (no dataflow op); the
                # scalar fallback mirrors bind_scalar.  Either way the
                # test fact is copied from the source (bind_alias and
                # the scalar path both do), or dropped.
                guard = env.get(source.name)
                env.pop(target, None)
                if guard is not None:
                    env[target] = guard
                return env
            if isinstance(source, ir.NewObj):
                ctor = checker.program.resolve_constructor(
                    source.class_name, len(source.args)
                )
                if ctor is not None:
                    spec = checker.spec_of(ctor)
                    for param, arg in zip(ctor.method_decl.params, source.args):
                        self._call_target(
                            ops, node, arg, param.name, spec, ctor, klass,
                            lane_of, lanes, bound_at,
                        )
                lane = lane_of[target]
                ops.append(("bindc", lane, KIND_ID[kinds.UNIQUE], 0))
                self._kill_lane(env, lane)
                env.pop(target, None)
                return env
            if isinstance(source, ir.Call):
                return self._compile_call(
                    node, instr, source, env, ops, klass, lane_of, lanes, bound_at
                )
            if isinstance(source, ir.FieldLoad):
                if target in klass and target in lane_of:
                    # Classification decided "protocol field" from the
                    # receiver's static class; that only matches the
                    # checker when the receiver is actually bound here.
                    if source.receiver is None or not bound_at(
                        source.receiver, node.node_id
                    ):
                        raise Residue("field-load-unbound")
                    lane = lane_of[target]
                    field_kind = self._field_kind(source, klass)
                    ops.append(("bindc", lane, KIND_ID[field_kind], 0))
                    self._kill_lane(env, lane)
                env.pop(target, None)
                return env
            if isinstance(source, ir.UnOp) and source.op == "!":
                guard = env.get(source.operand)
                env.pop(target, None)
                if guard is not None:
                    env[target] = guard.negated()
                return env
            if isinstance(source, ir.BinOp) and source.op in ("&&", "||"):
                left = env.get(source.left)
                right = env.get(source.right)
                env.pop(target, None)
                if left is not None or right is not None:
                    neutral = Guard()
                    if source.op == "&&":
                        env[target] = Guard.conjunction(
                            left if left is not None else neutral,
                            right if right is not None else neutral,
                        )
                    else:
                        env[target] = Guard.disjunction(
                            left if left is not None else neutral,
                            right if right is not None else neutral,
                        )
                return env
            # Const and every other scalar source.
            env.pop(target, None)
            return env
        if isinstance(instr, ir.FieldStore):
            receiver = instr.receiver
            if receiver is not None and bound_at(receiver, node.node_id):
                self._site(ops, lane_of[receiver], REQ_NOT_READONLY, ALL_ONES)
            value = instr.value
            if value is not None and bound_at(value, node.node_id):
                ops.append(("weaken", lane_of[value]))
            return env
        if isinstance(instr, ir.ReturnInstr):
            spec = checker.spec_of(self.ref)
            clauses = spec.ensured_for("result")
            if clauses and instr.value is not None:
                clause = clauses[0]
                if bound_at(instr.value, node.node_id):
                    lane = lane_of[instr.value]
                    machine = lanes[lane]
                    mask = self._state_mask(
                        machine, clause, checker.state_space(machine.class_name)
                    )
                    self._site(ops, lane, KIND_ID[clause.kind], mask)
                else:
                    self._site(ops, None, KIND_ID[clause.kind], ALL_ONES)
            return env
        return env

    def _compile_call(
        self, node, instr, call, env, ops, klass, lane_of, lanes, bound_at
    ):
        checker = self.checker
        target = instr.target
        callee = None
        if call.static_class is not None:
            callee = checker.program.resolve_method(
                call.static_class, call.method_name, len(call.args)
            )
        if callee is None:
            lane = lane_of[target]
            ops.append(("bindc", lane, KIND_ID[None], 0))
            self._kill_lane(env, lane)
            env.pop(target, None)
            return env
        spec = checker.spec_of(callee)
        receiver = call.receiver
        if not callee.method_decl.is_static and receiver is not None:
            self._call_target(
                ops, node, receiver, "this", spec, callee, klass, lane_of,
                lanes, bound_at,
            )
        for param, arg in zip(callee.method_decl.params, call.args):
            self._call_target(
                ops, node, arg, param.name, spec, callee, klass, lane_of,
                lanes, bound_at,
            )
        result_clauses = spec.ensured_for("result")
        target_is_object = target in klass and target in lane_of
        if result_clauses:
            clause = result_clauses[0]
            lane = lane_of[target]
            machine = lanes[lane]
            ops.append(
                ("bindc", lane, KIND_ID[clause.kind], machine.intern(clause.state))
            )
            self._kill_lane(env, lane)
            env.pop(target, None)
        elif target_is_object:
            lane = lane_of[target]
            ops.append(("bindc", lane, KIND_ID[None], 0))
            self._kill_lane(env, lane)
            env.pop(target, None)
        else:
            env.pop(target, None)
        # Dynamic state test witness on the boolean result.
        if spec.is_state_test and receiver is not None:
            if target == receiver:
                bound = target_is_object or bool(result_clauses)
            else:
                bound = bound_at(receiver, node.node_id)
            if bound:
                lane = lane_of.get(target if target == receiver else receiver)
                if lane is not None:
                    env[target] = Guard.of(
                        StateTest(
                            lane, spec.true_indicates, spec.false_indicates
                        )
                    )
        return env

    def _call_target(
        self, ops, node, var, spec_target, spec, callee, klass, lane_of,
        lanes, bound_at,
    ):
        """Mirror _check_and_update_target for one argument/receiver."""
        checker = self.checker
        requires = spec.required_for(spec_target)
        ensures = spec.ensured_for(spec_target)
        bound = bound_at(var, node.node_id)
        lane = lane_of[var] if bound else None
        if requires:
            clause = requires[0]
            if lane is None:
                # Held kind is None on every path: MISSING_PERMISSION.
                self._site(ops, None, KIND_ID[clause.kind], ALL_ONES)
            else:
                machine = lanes[lane]
                space = checker.state_space(
                    machine.class_name or callee.class_decl.name
                ) or checker.state_space(callee.class_decl.name)
                mask = self._state_mask(machine, clause, space)
                self._site(ops, lane, KIND_ID[clause.kind], mask)
        if lane is None:
            return  # cell_of(var) is None: no ensures application
        machine = lanes[lane]
        rows = self._update_rows(machine, requires, ensures)
        if rows is not None:
            ops.append(("update", lane, rows))

    def _update_rows(self, machine, requires, ensures):
        """Precompiled _after_call_perm per held-kind id, or None if no-op."""
        required_kind = requires[0].kind if requires else None
        ensured = ensures[0] if ensures else None
        if required_kind is None and ensured is None:
            return None  # kind kept, borrowed_readonly keeps state
        borrowed_readonly = (
            required_kind is None or required_kind not in kinds.WRITING_KINDS
        )
        rows = []
        for held_id in range(NKIND):
            held = ID_KIND[held_id]
            if required_kind is not None and (
                held is None or not kinds.satisfies(held, required_kind)
            ):
                rows.append((held_id, True, 0))  # requires failed: unchanged
                continue
            if ensured is not None:
                if held is not None and kinds.satisfies(held, ensured.kind):
                    new_kind = held
                else:
                    new_kind = ensured.kind
            elif required_kind is not None:
                new_kind = best_retained(held, required_kind)
            else:
                new_kind = held
            if ensured is not None and not borrowed_readonly:
                rows.append((KIND_ID[new_kind], False, machine.intern(ensured.state)))
            elif borrowed_readonly:
                rows.append((KIND_ID[new_kind], True, 0))
            else:
                rows.append((KIND_ID[new_kind], False, 0))  # reset to ALIVE
        return tuple(rows)

    def _field_kind(self, load, klass):
        checker = self.checker
        receiver = load.receiver
        if receiver is None or receiver not in klass:
            return None
        owner_class = klass[receiver]
        if owner_class is None:
            return None
        found = checker.program.lookup_field(owner_class, load.field_name)
        if found is None:
            return None
        _owner, field = found
        for annotation in field.annotations:
            if annotation.name == "Perm":
                return annotation.argument("value")
        return None

    @staticmethod
    def _state_mask(machine, clause, space):
        """uint64 of interned states satisfying the clause's state."""
        if clause.state == ALIVE or space is None:
            return ALL_ONES
        machine.intern(clause.state)
        mask = 0
        for sid, name in enumerate(machine.states):
            if space.satisfies(name, clause.state):
                mask |= 1 << sid
        return mask

    @staticmethod
    def _kill_lane(env, lane):
        """Drop guard facts about a freshly re-bound lane (stale cell)."""
        for var in list(env):
            guard = env[var]
            true_refs = tuple(
                (l, s) for l, s in guard.true_refinements if l != lane
            )
            false_refs = tuple(
                (l, s) for l, s in guard.false_refinements if l != lane
            )
            if (true_refs, false_refs) != (
                guard.true_refinements,
                guard.false_refinements,
            ):
                if true_refs or false_refs:
                    env[var] = Guard(true_refs, false_refs)
                else:
                    del env[var]

    def _signature(self, plan):
        machine_ids = tuple(
            self.host.machine_sig_id(machine) for machine in plan.lanes
        )
        return (
            machine_ids,
            plan.entry,
            tuple(plan.nodes),
            plan.entry_idx,
            plan.exit_idx,
            plan.rpo,
        )


# ---------------------------------------------------------------------------
# Graph helpers
# ---------------------------------------------------------------------------


def _dominance_intervals(rpo):
    """Dominator-tree preorder intervals for O(1) dominance queries.

    Cooper–Harvey–Kennedy iterative idoms over reverse postorder, then a
    preorder numbering of the dominator tree: ``d`` dominates ``n`` iff
    ``tin[d] <= tin[n] <= tout[d]`` (reflexive).  Self-loop edges are
    skipped — a path through a self edge reaches the node first, so they
    never change dominators.
    """
    index = {node.node_id: i for i, node in enumerate(rpo)}
    preds = [
        [index[p.node_id] for p, _ in node.preds if p.node_id in index]
        for node in rpo
    ]
    idom = [None] * len(rpo)
    if rpo:
        idom[0] = 0
    changed = True
    while changed:
        changed = False
        for i in range(1, len(rpo)):
            new = None
            for p in preds[i]:
                if p == i or idom[p] is None:
                    continue
                if new is None:
                    new = p
                    continue
                a, b = new, p
                while a != b:
                    while a > b:
                        a = idom[a]
                    while b > a:
                        b = idom[b]
                new = a
            if new is not None and idom[i] != new:
                idom[i] = new
                changed = True
    children = [[] for _ in rpo]
    for i in range(1, len(rpo)):
        if idom[i] is not None:
            children[idom[i]].append(i)
    tin = {}
    tout = {}
    clock = 0
    stack = [(0, False)] if rpo else []
    while stack:
        i, done = stack.pop()
        node_id = rpo[i].node_id
        if done:
            tout[node_id] = clock
            continue
        clock += 1
        tin[node_id] = clock
        stack.append((i, True))
        for child in reversed(children[i]):
            stack.append((child, False))
    return tin, tout


def _cycle_nodes(rpo, tin, tout):
    """node_ids lying on some CFG cycle.

    Java's structured control flow lowers to reducible CFGs, where every
    cycle is a natural loop of a back edge ``u -> h`` with ``h``
    dominating ``u``; the on-cycle set is the union of natural-loop
    bodies, gathered by reverse reachability from ``u`` stopping at
    ``h``.  A retreating edge whose target does not dominate its source
    would mean an irreducible region — punt the method to tier 2 rather
    than reason imprecisely about it.
    """
    index = {node.node_id: i for i, node in enumerate(rpo)}
    by_id = {node.node_id: node for node in rpo}
    result = set()
    for node in rpo:
        u = node.node_id
        for succ, _label in node.succs:
            h = succ.node_id
            if h not in index or index[h] > index[u]:
                continue
            if not (tin[h] <= tin[u] <= tout[h]):
                raise Residue("irreducible-cycle")
            if h == u:
                result.add(u)
                continue
            result.add(h)
            stack = [u]
            seen = {h, u}
            result.add(u)
            while stack:
                current = by_id[stack.pop()]
                for pred, _ in current.preds:
                    p = pred.node_id
                    if p in index and p not in seen:
                        seen.add(p)
                        result.add(p)
                        stack.append(p)
    return result


# ---------------------------------------------------------------------------
# Fixpoint + reporting over a plan
# ---------------------------------------------------------------------------


def _step(values, op):
    """Apply one non-site op to a fact's lane list, in place."""
    tag = op[0]
    if tag == "update":
        lane, rows = op[1], op[2]
        kind_id, state_id = values[lane]
        new_kind, keep, const = rows[kind_id]
        values[lane] = (new_kind, state_id if keep else const)
    elif tag == "bindc":
        values[op[1]] = (op[2], op[3])
    elif tag == "weaken":
        lane = op[1]
        kind_id, state_id = values[lane]
        if ID_KIND[kind_id] in kinds.EXCLUSIVE_KINDS:
            values[lane] = (KIND_ID[kinds.SHARE], state_id)


def _transfer(fact, ops):
    """Apply a node's non-site ops to a fact tuple."""
    values = None
    for op in ops:
        if op[0] == "site":
            continue
        if values is None:
            values = list(fact)
        _step(values, op)
    return fact if values is None else tuple(values)


def _join(plan, left, right):
    if left is None:
        return right
    if right is None:
        return left
    if left == right:
        return left
    lanes = plan.lanes
    out = []
    for lane, (a, b) in enumerate(zip(left, right)):
        if a == b:
            out.append(a)
            continue
        machine = lanes[lane]
        out.append((KJOIN[a[0]][b[0]], machine.join(a[1], b[1])))
    return tuple(out)


def _apply_refs(plan, fact, refs):
    values = list(fact)
    for lane, sid in refs:
        kind_id, state_id = values[lane]
        values[lane] = (kind_id, plan.lanes[lane].meet_or_replace(state_id, sid))
    return tuple(values)


def run_plan(plan):
    """Fixpoint a plan; returns (in_facts, out_facts) lists."""
    n = len(plan.nodes)
    in_facts = [None] * n
    out_facts = [None] * n
    in_facts[plan.entry_idx] = plan.entry
    worklist = deque(plan.rpo)
    queued = set(plan.rpo)
    while worklist:
        idx = worklist.popleft()
        queued.discard(idx)
        ops, preds, succs = plan.nodes[idx]
        if idx != plan.entry_idx:
            incoming = None
            first = True
            for pidx, refs in preds:
                fact = out_facts[pidx] if pidx >= 0 else None
                if fact is not None and refs:
                    fact = _apply_refs(plan, fact, refs)
                incoming = fact if first else _join(plan, incoming, fact)
                first = False
            in_facts[idx] = incoming
        fact = in_facts[idx]
        new_out = None if fact is None else _transfer(fact, ops)
        if new_out != out_facts[idx]:
            out_facts[idx] = new_out
            for sidx in succs:
                if sidx not in queued:
                    queued.add(sidx)
                    worklist.append(sidx)
    return in_facts, out_facts


def collect_sites(plan, in_facts):
    """(held_id, state_bit, req_id, mask) records for every site check."""
    records = []
    for idx, (ops, _preds, _succs) in enumerate(plan.nodes):
        fact = in_facts[idx]
        if fact is None or not ops:
            continue
        values = None
        for op in ops:
            tag = op[0]
            if tag == "site":
                _tag, lane, req_id, mask = op
                if lane is None:
                    records.append((KIND_ID[None], 1, req_id, mask))
                else:
                    kind_id, state_id = (
                        values[lane] if values is not None else fact[lane]
                    )
                    records.append((kind_id, 1 << state_id, req_id, mask))
                continue
            if values is None:
                values = list(fact)
            _step(values, op)
    return records


# ---------------------------------------------------------------------------
# The tier-1 driver
# ---------------------------------------------------------------------------

#: Flat KSAT for the vectorized sweep (held_id * NREQ + req_id).
_KSAT_FLAT = [KSAT[h][r] for h in range(NKIND) for r in range(NREQ)]


class TierOneOutcome:
    """Each method's tier-1 verdict, in the order the methods were given.

    ``verdicts`` holds ``(method_ref, reason, sites)``: ``reason`` is
    None for a proven method and the residue reason otherwise, and
    ``sites`` counts the method's tier-1 sites.  ``proven`` and
    ``residue`` are the two sides; perfbench's tier-1 counters read them.
    """

    __slots__ = ("verdicts",)

    def __init__(self):
        self.verdicts = []

    @property
    def proven(self):
        return [ref for ref, reason, _sites in self.verdicts if reason is None]

    @property
    def residue(self):
        return [
            (ref, reason)
            for ref, reason, _sites in self.verdicts
            if reason is not None
        ]


class BitVectorChecker:
    """Compiles methods against a :class:`PluralChecker`'s spec view."""

    def __init__(self, checker):
        self.checker = checker
        self._machine_sig_ids = {}

    def machine_sig_id(self, machine):
        sig = machine.signature()
        sig_id = self._machine_sig_ids.get(sig)
        if sig_id is None:
            sig_id = len(self._machine_sig_ids)
            self._machine_sig_ids[sig] = sig_id
        return sig_id

    def partition(self, methods, failures=None):
        """Prove methods safe in bulk; everything else is residue.

        ``methods`` is an ordered iterable of method refs (program
        order); the verdicts keep that order so the caller's warning
        concatenation matches the full checker's.  A crash while
        planning one method makes it residue (``fault:*``) with a
        ``tier-fallback`` record in ``failures``.
        """
        from repro.java.symbols import method_key

        entries = []  # (ref, plan | None, reason | None, site_count)
        plan_of_sig = {}
        rep_plans = []  # unique plans, in first-seen order
        for ref in methods:
            builder = _PlanBuilder(self, ref)
            try:
                plan = builder.build()
            except Residue as residue:
                entries.append((ref, None, residue.reason, builder.site_count))
                continue
            except Exception as exc:
                if failures is not None:
                    failures.record(
                        "check", method_key(ref), exc, "tier-fallback"
                    )
                entries.append(
                    (ref, None, "fault:%s" % type(exc).__name__, 0)
                )
                continue
            rep = plan_of_sig.setdefault(plan.signature, plan)
            if rep is plan:
                rep_plans.append(plan)
            entries.append((ref, rep, None, plan.site_count))

        # Fixpoint each unique plan once; batch all site records.
        held_col = []
        bits_col = []
        req_col = []
        mask_col = []
        plan_col = []
        plan_ids = {}
        failed_plan = {}
        for plan in rep_plans:
            plan_ids[id(plan)] = len(plan_ids)
            try:
                in_facts, _out = run_plan(plan)
                records = collect_sites(plan, in_facts)
            except Exception as exc:
                failed_plan[id(plan)] = "fault:%s" % type(exc).__name__
                continue
            pid = plan_ids[id(plan)]
            for held, bit, req, mask in records:
                held_col.append(held)
                bits_col.append(bit)
                req_col.append(req)
                mask_col.append(mask)
                plan_col.append(pid)

        unsafe = self._sweep(
            len(rep_plans), held_col, bits_col, req_col, mask_col, plan_col
        )

        outcome = TierOneOutcome()
        for ref, plan, reason, sites in entries:
            if plan is not None:
                if id(plan) in failed_plan:
                    reason = failed_plan[id(plan)]
                elif unsafe[plan_ids[id(plan)]]:
                    reason = "unproven-site"
            outcome.verdicts.append((ref, reason, sites))
        return outcome

    @staticmethod
    def _sweep(n_plans, held_col, bits_col, req_col, mask_col, plan_col):
        """One vectorized pass over every site of every plan."""
        if not held_col:
            return [False] * n_plans
        held = np.asarray(held_col, dtype=np.int64)
        req = np.asarray(req_col, dtype=np.int64)
        bits = np.asarray(bits_col, dtype=np.uint64)
        masks = np.asarray(mask_col, dtype=np.uint64)
        plan_ids = np.asarray(plan_col, dtype=np.int64)
        ksat = np.asarray(_KSAT_FLAT, dtype=bool)
        kind_ok = np.take(ksat, held * NREQ + req)
        state_ok = np.bitwise_and(bits, masks) != np.uint64(0)
        failing = ~(kind_ok & state_ok)
        counts = np.zeros(n_plans, dtype=np.int64)
        np.add.at(counts, plan_ids[failing], 1)
        return (counts > 0).tolist()
