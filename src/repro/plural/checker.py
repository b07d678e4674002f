"""The PLURAL modular typestate checker.

Checks one method at a time against the access-permission specifications
attached to the methods it calls (paper §2).  The flow fact is a
:class:`repro.plural.context.Context`; the transfer function implements:

* permission creation at ``new`` (unique) and at specified call results;
* permission checking and splitting at call sites with ``requires``;
* abstract-state tracking through ``ensures`` clauses;
* branch-sensitive refinement at dynamic state tests
  (``@TrueIndicates``/``@FalseIndicates``), including negation and
  composition through ``&&``/``||`` (``it.hasNext() && go`` refines the
  iterator on the true branch);
* field-write checks (no store through read-only permissions).

Soundness posture matches PLURAL: anything unknown (calls into
unannotated code, unknown receivers) yields *no* permission, and uses of
permission-less references raise warnings.
"""

import time
from dataclasses import dataclass, field

from repro.analysis import ir
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import ForwardAnalysis
from repro.permissions import kinds
from repro.permissions.spec import SpecEnvironment
from repro.permissions.splitting import best_retained
from repro.permissions.states import ALIVE, state_space_of_class
from repro.plural.context import NO_PERM, Context, Guard, Perm, StateTest
from repro.plural.warnings import Warning, WarningKind, dedupe

#: Classes treated as having no protocol (scalars, strings, boxed types).
_VALUE_CLASSES = frozenset(
    ["String", "Integer", "Long", "Boolean", "Character", "Object", "Double"]
)


class _CheckerAnalysis(ForwardAnalysis):
    """The dataflow instance for one method."""

    def __init__(self, checker, method_ref, sink=None):
        self.checker = checker
        self.method_ref = method_ref
        self.sink = sink  # list collecting warnings, or None during fixpoint

    def initial(self):
        return None  # unreached

    def boundary(self):
        return self.checker.entry_context(self.method_ref)

    def join(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return left.join(right, state_space_of=self.checker.state_space)

    def transfer(self, node, fact, edge_label=None):
        if fact is None:
            return None
        return self.checker.transfer(self.method_ref, node, fact, self.sink)

    def edge_transfer(self, src, dst, label, fact):
        if fact is None or src.kind != "branch" or label not in ("true", "false"):
            return fact
        test = fact.tests.get(src.cond_var)
        if test is None:
            return fact
        for cell, state in test.refinements(label == "true"):
            perm = fact.perm_of_cell(cell)
            space = self.checker.state_space(perm.class_name)
            fact = fact.refine_state(cell, state, space)
        return fact


class PluralChecker:
    """Modular checker over a resolved program."""

    def __init__(self, program, default_this_kind=kinds.FULL):
        self.program = program
        self.default_this_kind = default_this_kind
        self._spaces = {}
        #: The spec governing a method, supertype inheritance included:
        #: the same rule inference reads.
        self.spec_of = SpecEnvironment(program).spec_of

    # -- lookup helpers ----------------------------------------------------------

    def state_space(self, class_name):
        if class_name is None:
            return None
        if class_name not in self._spaces:
            decl = self.program.lookup_class(class_name)
            self._spaces[class_name] = (
                state_space_of_class(decl) if decl is not None else None
            )
        return self._spaces[class_name]

    def _is_protocol_class(self, class_name):
        if class_name is None or class_name in _VALUE_CLASSES:
            return False
        return self.program.lookup_class(class_name) is not None

    # -- entry context -------------------------------------------------------------

    def entry_context(self, method_ref):
        """The context assumed at method entry, from the method's spec."""
        spec = self.spec_of(method_ref)
        ctx = Context()
        method = method_ref.method_decl
        # Receiver.
        if not method.is_static:
            clauses = spec.required_for("this")
            if clauses:
                clause = clauses[0]
                perm = Perm(clause.kind, clause.state, method_ref.class_decl.name)
            else:
                perm = Perm(
                    self.default_this_kind, ALIVE, method_ref.class_decl.name
                )
            ctx = ctx.bind_fresh("this", perm, tag="param")
        # Parameters.
        for param in method.params:
            class_name = param.type.name if param.type is not None else None
            if not self._is_protocol_class(class_name) and class_name not in (
                None,
            ):
                # Scalar-ish parameter: no cell.
                if param.type is not None and param.type.is_primitive:
                    continue
            clauses = spec.required_for(param.name)
            if clauses:
                clause = clauses[0]
                perm = Perm(clause.kind, clause.state, class_name)
            else:
                perm = Perm(None, ALIVE, class_name)
            ctx = ctx.bind_fresh(param.name, perm, tag="param")
        return ctx

    # -- transfer --------------------------------------------------------------------

    def transfer(self, method_ref, node, ctx, sink):
        if node.kind != "instr":
            return ctx
        instr = node.instr
        if isinstance(instr, ir.Assign):
            return self._transfer_assign(method_ref, instr, ctx, sink)
        if isinstance(instr, ir.FieldStore):
            return self._transfer_field_store(method_ref, instr, ctx, sink)
        if isinstance(instr, ir.ReturnInstr):
            return self._transfer_return(method_ref, instr, ctx, sink)
        return ctx

    def _transfer_assign(self, method_ref, instr, ctx, sink):
        source = instr.source
        if isinstance(source, ir.UseVar):
            if ctx.cell_of(source.name) is not None:
                return ctx.bind_alias(instr.target, source.name)
            new_ctx = ctx.bind_scalar(instr.target)
            test = ctx.tests.get(source.name)
            if test is not None:
                new_ctx = new_ctx.set_test(instr.target, test)
            return new_ctx
        if isinstance(source, ir.Const):
            return ctx.bind_scalar(instr.target)
        if isinstance(source, ir.NewObj):
            # Check constructor argument requirements, if a constructor
            # with a spec is declared.
            ctor = self.program.resolve_constructor(
                source.class_name, len(source.args)
            )
            new_ctx = ctx
            if ctor is not None:
                spec = self.spec_of(ctor)
                for param, arg in zip(ctor.method_decl.params, source.args):
                    new_ctx = self._check_and_update_target(
                        method_ref,
                        new_ctx,
                        arg,
                        param.name,
                        spec,
                        ctor,
                        instr.line,
                        sink,
                    )
            perm = Perm(kinds.UNIQUE, ALIVE, source.class_name)
            return new_ctx.bind_fresh(instr.target, perm, tag="new")
        if isinstance(source, ir.Call):
            return self._transfer_call(method_ref, instr, source, ctx, sink)
        if isinstance(source, ir.FieldLoad):
            return self._transfer_field_load(method_ref, instr, source, ctx)
        if isinstance(source, ir.UnOp) and source.op == "!":
            test = ctx.tests.get(source.operand)
            new_ctx = ctx.bind_scalar(instr.target)
            if test is not None:
                new_ctx = new_ctx.set_test(instr.target, test.negated())
            return new_ctx
        if isinstance(source, ir.BinOp) and source.op in ("&&", "||"):
            # Compose state-test knowledge through boolean connectives:
            # (a && b) true implies both tests passed; (a || b) false
            # implies both failed.
            left = ctx.tests.get(source.left)
            right = ctx.tests.get(source.right)
            new_ctx = ctx.bind_scalar(instr.target)
            if left is not None or right is not None:
                neutral = Guard()
                if source.op == "&&":
                    guard = Guard.conjunction(
                        left if left is not None else neutral,
                        right if right is not None else neutral,
                    )
                else:
                    guard = Guard.disjunction(
                        left if left is not None else neutral,
                        right if right is not None else neutral,
                    )
                new_ctx = new_ctx.set_test(instr.target, guard)
            return new_ctx
        return ctx.bind_scalar(instr.target)

    def _transfer_call(self, method_ref, instr, call, ctx, sink):
        callee = None
        if call.static_class is not None:
            callee = self.program.resolve_method(
                call.static_class, call.method_name, len(call.args)
            )
        if callee is None:
            # Unknown callee: result carries no permission.
            return ctx.bind_fresh(instr.target, NO_PERM, tag="unknown-call")
        spec = self.spec_of(callee)
        new_ctx = ctx
        # Receiver requirement.
        receiver = call.receiver
        if not callee.method_decl.is_static and receiver is not None:
            new_ctx = self._check_and_update_target(
                method_ref,
                new_ctx,
                receiver,
                "this",
                spec,
                callee,
                instr.line,
                sink,
            )
        # Parameter requirements, positionally.
        for param, arg in zip(callee.method_decl.params, call.args):
            new_ctx = self._check_and_update_target(
                method_ref, new_ctx, arg, param.name, spec, callee, instr.line, sink
            )
        # Result permission.
        result_clauses = spec.ensured_for("result")
        if result_clauses:
            clause = result_clauses[0]
            class_name = self._result_class(callee)
            perm = Perm(clause.kind, clause.state, class_name)
            new_ctx = new_ctx.bind_fresh(instr.target, perm, tag="result")
        else:
            class_name = self._result_class(callee)
            if self._is_protocol_class(class_name):
                new_ctx = new_ctx.bind_fresh(
                    instr.target, Perm(None, ALIVE, class_name), tag="result"
                )
            else:
                new_ctx = new_ctx.bind_scalar(instr.target)
        # Dynamic state test: the boolean result witnesses receiver state.
        if spec.is_state_test and receiver is not None:
            cell = new_ctx.cell_of(receiver)
            if cell is not None:
                new_ctx = new_ctx.set_test(
                    instr.target,
                    StateTest(cell, spec.true_indicates, spec.false_indicates),
                )
        return new_ctx

    def _check_and_update_target(
        self, method_ref, ctx, var, spec_target, spec, callee, line, sink
    ):
        """Check requires clauses for one call target and apply ensures."""
        requires = spec.required_for(spec_target)
        ensures = spec.ensured_for(spec_target)
        cell = ctx.cell_of(var)
        perm = ctx.perm_of_var(var)
        held_kind = perm.kind
        if requires:
            clause = requires[0]
            if held_kind is None:
                self._warn(
                    sink,
                    WarningKind.MISSING_PERMISSION,
                    method_ref,
                    line,
                    "call to %s needs %s(%s) but no permission is available"
                    % (callee.qualified_name, clause.kind, spec_target),
                )
            elif not kinds.satisfies(held_kind, clause.kind):
                self._warn(
                    sink,
                    WarningKind.INSUFFICIENT_PERMISSION,
                    method_ref,
                    line,
                    "call to %s needs %s(%s) but only %s is held"
                    % (callee.qualified_name, clause.kind, spec_target, held_kind),
                )
            else:
                space = self.state_space(
                    perm.class_name or callee.class_decl.name
                ) or self.state_space(callee.class_decl.name)
                if (
                    clause.state != ALIVE
                    and space is not None
                    and not space.satisfies(perm.state, clause.state)
                ):
                    self._warn(
                        sink,
                        WarningKind.WRONG_STATE,
                        method_ref,
                        line,
                        "call to %s needs %s in state %s but state is %s"
                        % (
                            callee.qualified_name,
                            spec_target,
                            clause.state,
                            perm.state,
                        ),
                    )
        if cell is None:
            return ctx
        new_perm = self._after_call_perm(perm, requires, ensures)
        return ctx.set_perm(cell, new_perm)

    def _after_call_perm(self, perm, requires, ensures):
        """The caller's permission for an argument after the call returns.

        The lent permission comes back as the ensures clause describes; it
        merges with whatever the caller retained during the call, so a
        borrow-and-return (pure lent from unique) does not weaken the
        caller's claim.  State knowledge survives read-only calls; writing
        calls reset state to whatever the callee ensures.
        """
        held = perm.kind
        required_kind = requires[0].kind if requires else None
        ensured = ensures[0] if ensures else None
        if required_kind is not None and (
            held is None or not kinds.satisfies(held, required_kind)
        ):
            return perm  # requires failed: error recovery keeps what we had
        borrowed_readonly = (
            required_kind is None or required_kind not in kinds.WRITING_KINDS
        )
        # Kind after the call.
        if ensured is not None:
            if held is not None and kinds.satisfies(held, ensured.kind):
                new_kind = held  # retained + returned >= what we lent
            else:
                new_kind = ensured.kind
        elif required_kind is not None:
            if held is None or not kinds.satisfies(held, required_kind):
                new_kind = held  # error recovery: keep what we had
            else:
                new_kind = best_retained(held, required_kind)
        else:
            new_kind = held
        # State after the call.
        if ensured is not None and not borrowed_readonly:
            new_state = ensured.state
        elif borrowed_readonly:
            new_state = perm.state
        else:
            new_state = ALIVE
        return Perm(new_kind, new_state, perm.class_name)

    def _transfer_field_load(self, method_ref, instr, load, ctx):
        receiver_perm = ctx.perm_of_var(load.receiver) if load.receiver else NO_PERM
        class_name = None
        field_kind = None
        if receiver_perm.class_name is not None:
            found = self.program.lookup_field(
                receiver_perm.class_name, load.field_name
            )
            if found is not None:
                owner, field = found
                class_name = field.type.name if field.type is not None else None
                for annotation in field.annotations:
                    if annotation.name == "Perm":
                        field_kind = annotation.argument("value")
        if self._is_protocol_class(class_name):
            perm = Perm(field_kind, ALIVE, class_name)
            return ctx.bind_fresh(instr.target, perm, tag="field")
        return ctx.bind_scalar(instr.target)

    def _transfer_field_store(self, method_ref, instr, ctx, sink):
        receiver_perm = (
            ctx.perm_of_var(instr.receiver) if instr.receiver else NO_PERM
        )
        if (
            receiver_perm.kind is not None
            and receiver_perm.kind in kinds.READ_ONLY_KINDS
        ):
            self._warn(
                sink,
                WarningKind.READONLY_FIELD_WRITE,
                method_ref,
                instr.line,
                "field %s written through read-only %s permission"
                % (instr.field_name, receiver_perm.kind),
            )
        # The stored object becomes field-aliased; weaken exclusive claims.
        cell = ctx.cell_of(instr.value)
        if cell is not None:
            perm = ctx.perm_of_cell(cell)
            if perm.kind in kinds.EXCLUSIVE_KINDS:
                ctx = ctx.set_perm(cell, perm.replace(kind=kinds.SHARE))
        return ctx

    def _transfer_return(self, method_ref, instr, ctx, sink):
        spec = self.spec_of(method_ref)
        clauses = spec.ensured_for("result")
        if clauses and instr.value is not None:
            clause = clauses[0]
            perm = ctx.perm_of_var(instr.value)
            if perm.kind is None or not kinds.satisfies(perm.kind, clause.kind):
                self._warn(
                    sink,
                    WarningKind.RETURN_MISMATCH,
                    method_ref,
                    instr.line,
                    "return promises %s(result) but value holds %s"
                    % (clause.kind, perm.kind),
                )
            else:
                space = self.state_space(perm.class_name)
                if (
                    clause.state != ALIVE
                    and space is not None
                    and not space.satisfies(perm.state, clause.state)
                ):
                    self._warn(
                        sink,
                        WarningKind.RETURN_MISMATCH,
                        method_ref,
                        instr.line,
                        "return promises state %s but value is in %s"
                        % (clause.state, perm.state),
                    )
        return ctx

    @staticmethod
    def _warn(sink, kind, method_ref, line, message):
        if sink is not None:
            sink.append(
                Warning(kind, method_ref.qualified_name, line, message)
            )

    def _result_class(self, callee):
        return_type = callee.method_decl.return_type
        if return_type is None:
            return callee.class_decl.name  # constructor
        name = return_type.name
        if name in callee.method_decl.type_params or name in (
            callee.class_decl.type_params or []
        ):
            return None
        return name

    # -- public API -------------------------------------------------------------------

    def check_method(self, method_ref):
        """Check one method; returns its warnings (deduplicated)."""
        cfg = build_cfg(self.program, method_ref.class_decl, method_ref.method_decl)
        analysis = _CheckerAnalysis(self, method_ref, sink=None)
        result = analysis.run(cfg)
        # Final pass with a warning sink over the fixpoint facts.
        sink = []
        reporting = _CheckerAnalysis(self, method_ref, sink=sink)
        for node in cfg.reachable_nodes():
            fact = result.in_facts[node.node_id]
            if fact is None:
                continue
            reporting.transfer(node, fact)
        # Postcondition check for receiver/params at exit.
        self._check_exit(method_ref, result, cfg, sink)
        return dedupe(sink)

    def _check_exit(self, method_ref, result, cfg, sink):
        spec = self.spec_of(method_ref)
        fact = result.in_facts[cfg.exit.node_id]
        if fact is None:
            return
        targets = ["this"] + [
            param.name for param in method_ref.method_decl.params
        ]
        for target in targets:
            clauses = spec.ensured_for(target)
            if not clauses:
                continue
            clause = clauses[0]
            perm = fact.perm_of_var(target)
            if perm.kind is None or not kinds.satisfies(perm.kind, clause.kind):
                self._warn(
                    sink,
                    WarningKind.POST_MISMATCH,
                    method_ref,
                    method_ref.method_decl.line,
                    "postcondition promises %s(%s) but %s is held"
                    % (clause.kind, target, perm.kind),
                )

    def check_program(self):
        """Check every concrete method; returns all warnings."""
        warnings = []
        for method_ref in self.program.methods_with_bodies():
            warnings.extend(self.check_method(method_ref))
        return warnings


def check_program(program, default_this_kind=kinds.FULL):
    """Convenience wrapper: check the whole program."""
    return PluralChecker(program, default_this_kind).check_program()


# ---------------------------------------------------------------------------
# Tiered checking
# ---------------------------------------------------------------------------

CHECK_TIERS = ("full", "auto")


@dataclass
class CheckRun:
    """Outcome of a (possibly tiered) whole-program check.

    ``warnings`` is always bit-identical to the full checker's output:
    tier 1 only ever *proves* whole methods warning-free; every method it
    cannot prove is re-checked by the unmodified full checker, in program
    order.
    """

    warnings: list
    tier: str
    tier1_methods: int = 0
    tier2_methods: int = 0
    tier1_sites: int = 0
    tier2_sites: int = 0
    tier1_seconds: float = 0.0
    tier2_seconds: float = 0.0
    residue_reasons: dict = field(default_factory=dict)

    @property
    def total_seconds(self):
        return self.tier1_seconds + self.tier2_seconds

    @property
    def site_coverage(self):
        total = self.tier1_sites + self.tier2_sites
        return self.tier1_sites / total if total else 1.0

    def to_payload(self):
        """The tier split as plain data (a served response's
        ``stats.check``)."""
        return {
            "tier": self.tier,
            "tier1_methods": self.tier1_methods,
            "tier2_methods": self.tier2_methods,
            "tier1_sites": self.tier1_sites,
            "tier2_sites": self.tier2_sites,
            "tier1_seconds": self.tier1_seconds,
            "tier2_seconds": self.tier2_seconds,
        }

    def describe(self):
        if self.tier == "full":
            return "check: tier=full, %d method(s), %.3f s" % (
                self.tier2_methods,
                self.tier2_seconds,
            )
        reasons = ", ".join(
            "%s=%d" % (reason, count)
            for reason, count in sorted(self.residue_reasons.items())
        )
        return (
            "check: tier=%s, tier1 %d method(s)/%d site(s) in %.3f s, "
            "tier2 %d method(s)/%d site(s) in %.3f s%s"
            % (
                self.tier,
                self.tier1_methods,
                self.tier1_sites,
                self.tier1_seconds,
                self.tier2_methods,
                self.tier2_sites,
                self.tier2_seconds,
                " (%s)" % reasons if reasons else "",
            )
        )


def run_check(
    program,
    tier="auto",
    default_this_kind=kinds.FULL,
    failures=None,
    verdicts=None,
):
    """Check the program through the requested tier; returns a CheckRun.

    ``tier``:

    * ``"full"`` — the fractional-permission checker on every method;
    * ``"auto"`` — tier-1 bit-vector proving with full-checker residue
      routing.

    Both produce bit-identical warning lists.  ``full`` is the reference
    the differential tests hold ``auto`` to.  ``failures`` is an
    optional :class:`repro.resilience.report.FailureReport`; tier-1
    faults (injected or real) degrade the affected methods to the full
    checker and are recorded there with a ``tier-fallback`` disposition.

    ``verdicts`` (``auto`` only) is a store of tier-1 verdicts, a
    :class:`repro.cache.manager.CheckVerdicts`: a method whose verdict
    it holds is not planned, and every planned method's verdict is
    stored, except a ``fault:*`` one.  The ``check`` fault stage fires
    once per method, before the lookup.
    """
    if tier not in CHECK_TIERS:
        raise ValueError(
            "unknown check tier %r (choose from %s)" % (tier, "/".join(CHECK_TIERS))
        )
    checker = PluralChecker(program, default_this_kind)
    methods = list(program.methods_with_bodies())
    if tier == "full":
        start = time.perf_counter()
        warnings = []
        for method_ref in methods:
            warnings.extend(checker.check_method(method_ref))
        return CheckRun(
            warnings=warnings,
            tier="full",
            tier2_methods=len(methods),
            tier2_seconds=time.perf_counter() - start,
        )

    from repro.java.symbols import method_key
    from repro.plural import bitvector
    from repro.resilience.faults import maybe_fault

    tier1_start = time.perf_counter()
    verdict_of = {}  # method_ref -> (reason | None, sites)
    planned = {}  # method_ref -> its verdict's store key, or None
    for method_ref in methods:
        try:
            maybe_fault("check", method_key(method_ref))
            key = (
                verdicts.key(method_ref, checker)
                if verdicts is not None
                else None
            )
            verdict = verdicts.load(key) if key is not None else None
        except Exception as exc:
            if failures is not None:
                failures.record(
                    "check", method_key(method_ref), exc, "tier-fallback"
                )
            verdict_of[method_ref] = ("fault:%s" % type(exc).__name__, 0)
            continue
        if verdict is not None:
            verdict_of[method_ref] = verdict
            continue
        planned[method_ref] = key
    outcome = bitvector.TierOneOutcome()
    try:
        if planned:
            outcome = bitvector.BitVectorChecker(checker).partition(
                list(planned), failures=failures
            )
    except Exception as exc:
        # A whole-tier crash degrades every method to the full checker
        # and stores nothing; the run stays bit-identical to a full-tier
        # run.
        if failures is not None:
            failures.record("check", "tier1", exc, "tier-fallback")
        verdict_of = {ref: ("tier1-crash", 0) for ref in methods}
    else:
        for method_ref, reason, sites in outcome.verdicts:
            verdict_of[method_ref] = (reason, sites)
            key = planned[method_ref]
            if key is not None and not (reason or "").startswith("fault:"):
                verdicts.store(key, reason, sites)
    run = CheckRun(
        warnings=[], tier=tier, tier1_seconds=time.perf_counter() - tier1_start
    )

    # Tier-1-proven methods contribute zero warnings; the residue is
    # re-checked in program order, so concatenation preserves the full
    # checker's warning order exactly.
    tier2_start = time.perf_counter()
    for method_ref in methods:
        reason, sites = verdict_of[method_ref]
        if reason is None:
            run.tier1_methods += 1
            run.tier1_sites += sites
            continue
        run.tier2_methods += 1
        run.tier2_sites += sites
        run.residue_reasons[reason] = run.residue_reasons.get(reason, 0) + 1
        run.warnings.extend(checker.check_method(method_ref))
    run.tier2_seconds = time.perf_counter() - tier2_start
    return run
