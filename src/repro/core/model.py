"""Per-method probabilistic models (paper Definition 1).

``MethodModel`` assembles the factor graph Φ_m for one method: variables
for every PFG node, priors from declared specs (§3.2), logical and
heuristic constraints (§3.3), callee summaries applied at call-site
boundary nodes (APPLYSUMMARY), and caller evidence attached to the
method's own boundary nodes.

The worklist revisits each method many times with only its *inputs*
(callee summaries, deposited caller evidence) changed, so a model built
once can be reused: ``build`` with a summary store pre-allocates one
(initially uniform, hence neutral) evidence factor per boundary node,
``refresh`` rewrites just the summary-derived priors and evidence
tables that changed, and ``solve(engine="compiled")`` pushes those
mutated slots into the flat-array kernel and re-sweeps — no constraint
regeneration, no graph reconstruction.  :class:`ModelCache` packages
that lifecycle (plus fingerprint-based solve skipping) for the
inference engines.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core.constraints import ConstraintGenerator
from repro.core.priors import KIND_DOMAIN, boundary_priors
from repro.factorgraph.compiled import CompiledGraph
from repro.factorgraph.factors import Factor
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.sumproduct import run_sum_product
from repro.permissions.spec import SpecEnvironment
from repro.permissions.states import state_space_of_class

#: Engines accepted by ``MethodModel.solve`` / ``InferenceSettings.engine``.
ENGINES = ("compiled", "loopy")


class NodeVariables:
    """Creates and caches the kind/state variables of PFG nodes."""

    def __init__(self, graph, program):
        self.graph = graph
        self.program = program
        self._state_domains = {}
        self._kind_vars = {}
        self._state_vars = {}

    def state_domain(self, class_name):
        """The state domain for a class; None when no protocol declared."""
        if class_name is None:
            return None
        if class_name not in self._state_domains:
            decl = self.program.lookup_class(class_name)
            domain = None
            if decl is not None:
                space = state_space_of_class(decl)
                if len(space.states) > 1:
                    domain = tuple(space.states)
            self._state_domains[class_name] = domain
        return self._state_domains[class_name]

    def kind(self, node):
        if node.node_id not in self._kind_vars:
            self._kind_vars[node.node_id] = self.graph.add_variable(
                "n%d.kind" % node.node_id, KIND_DOMAIN
            )
        return self._kind_vars[node.node_id]

    def state(self, node):
        if node.node_id in self._state_vars:
            return self._state_vars[node.node_id]
        domain = self.state_domain(node.class_name)
        variable = None
        if domain is not None:
            variable = self.graph.add_variable(
                "n%d.state" % node.node_id, domain
            )
        self._state_vars[node.node_id] = variable
        return variable


def _prior_vector(variable, prior_dict):
    vector = np.array(
        [prior_dict.get(value, 0.0) for value in variable.domain]
    )
    total = vector.sum()
    if total <= 0:
        return variable.uniform()
    return vector / total


class MethodModel:
    """The factor graph for one method, ready for SOLVE."""

    def __init__(self, program, pfg, config, spec_env=None, summary_store=None):
        self.program = program
        self.pfg = pfg
        self.config = config
        self.spec_env = spec_env or SpecEnvironment(program)
        self.summary_store = summary_store
        self.graph = FactorGraph(
            name=pfg.method_ref.qualified_name if pfg.method_ref else "model"
        )
        self.vars = NodeVariables(self.graph, program)
        self.generator = ConstraintGenerator(
            self.graph, pfg, config, self.vars
        )
        self._compiled = None
        #: (slot, target, axis) -> (factor index, Factor) reserved slots.
        self._evidence_slots = {}
        #: Mutated-since-last-compile bookkeeping for incremental solves.
        self._dirty_priors = set()
        self._dirty_factors = {}

    # -- assembly -------------------------------------------------------------------

    def build(self):
        """Assemble the factor graph.

        With a summary store every boundary node gets a pre-allocated
        unary evidence factor (uniform until real evidence arrives — a
        uniform unary factor is the multiplicative identity under BP's
        per-message normalization).  That fixes the graph *structure*
        across worklist visits, so later visits only rewrite prior
        vectors and evidence tables in place.  Without one the method
        is modelled standalone, with no evidence factors.
        """
        # Materialize variables for every node first.
        for node in self.pfg.nodes:
            self.vars.kind(node)
            self.vars.state(node)
        self._apply_own_spec_priors()
        self._apply_callee_summaries()
        if self.summary_store is not None:
            self._reserve_evidence_slots()
            self._refresh_evidence()
        self.generator.add_logical()
        self.generator.add_heuristics()
        return self

    def refresh(self, summary_store):
        """Reapply the mutable inputs of a built model.

        Re-runs APPLYSUMMARY (callee summaries → call-node priors) and
        the caller-evidence aggregation against the current summary
        store, recording exactly which prior vectors and evidence tables
        changed so the compiled kernel can be patched instead of
        rebuilt.  Requires a model built with a summary store.
        """
        self.summary_store = summary_store
        self._apply_callee_summaries()
        self._refresh_evidence()
        return self

    def _write_prior(self, variable, vector):
        if np.array_equal(variable.prior, vector):
            return
        variable.prior = vector
        self._dirty_priors.add(variable.name)

    def _set_prior(self, node, kind_prior, state_prior):
        if kind_prior is not None:
            variable = self.vars.kind(node)
            self._write_prior(variable, _prior_vector(variable, kind_prior))
        if state_prior is not None:
            variable = self.vars.state(node)
            if variable is not None:
                self._write_prior(
                    variable, _prior_vector(variable, state_prior)
                )

    def _apply_own_spec_priors(self):
        """Priors on this method's boundary nodes from its own spec."""
        spec = self.spec_env.spec_of(self.pfg.method_ref)
        if spec.is_empty:
            return
        strength = self.config.spec_prior
        for target, node in self.pfg.param_pre.items():
            domain = self.vars.state_domain(node.class_name)
            kind_prior, state_prior = boundary_priors(
                spec, target, True, domain, strength
            )
            self._set_prior(node, kind_prior, state_prior)
        for target, node in self.pfg.param_post.items():
            domain = self.vars.state_domain(node.class_name)
            kind_prior, state_prior = boundary_priors(
                spec, target, False, domain, strength
            )
            self._set_prior(node, kind_prior, state_prior)
        if self.pfg.result_node is not None:
            node = self.pfg.result_node
            domain = self.vars.state_domain(node.class_name)
            kind_prior, state_prior = boundary_priors(
                spec, "result", False, domain, strength
            )
            self._set_prior(node, kind_prior, state_prior)

    def _apply_callee_summaries(self):
        """APPLYSUMMARY: callee specs/summaries become call-node priors."""
        strength = self.config.spec_prior
        for site in self.pfg.call_sites:
            callee = site["callee"]
            spec = None
            if callee is not None:
                spec = self.spec_env.spec_of(callee)
            annotated = spec is not None and not spec.is_empty
            for slot, nodes in (("pre", site["pre"]), ("post", site["post"])):
                for target, node in nodes.items():
                    domain = self.vars.state_domain(node.class_name)
                    if annotated:
                        kind_prior, state_prior = boundary_priors(
                            spec, target, slot == "pre", domain, strength
                        )
                        self._set_prior(node, kind_prior, state_prior)
                    else:
                        self._apply_summary_prior(callee, slot, target, node)
            if site["result"] is not None:
                node = site["result"]
                domain = self.vars.state_domain(node.class_name)
                if annotated:
                    kind_prior, state_prior = boundary_priors(
                        spec, "result", False, domain, strength
                    )
                    self._set_prior(node, kind_prior, state_prior)
                else:
                    self._apply_summary_prior(callee, "result", "result", node)

    def _apply_summary_prior(self, callee, slot, target, node):
        if self.summary_store is None or callee is None:
            return
        summary = self.summary_store.summary_of(callee)
        marginal = summary.get(slot, target)
        if marginal is None:
            return
        self._set_prior(node, marginal.kind, marginal.state)

    # -- caller evidence ---------------------------------------------------------

    def _boundary_slots(self):
        """(slot, target, node) triples of this method's boundary nodes."""
        slots = []
        for target, node in self.pfg.param_pre.items():
            slots.append(("pre", target, node))
        for target, node in self.pfg.param_post.items():
            slots.append(("post", target, node))
        if self.pfg.result_node is not None:
            slots.append(("result", "result", self.pfg.result_node))
        return slots

    def _reserve_evidence_slots(self):
        """Pre-allocate one evidence factor per boundary variable.

        Uniform tables are BP-neutral, so an unused slot never perturbs
        the marginals; with slots fixed up front, evidence arriving on a
        later worklist visit becomes a table rewrite instead of a graph
        change.
        """
        for slot, target, node in self._boundary_slots():
            kind_var = self.vars.kind(node)
            self._reserve_slot(slot, target, "kind", kind_var)
            state_var = self.vars.state(node)
            if state_var is not None:
                self._reserve_slot(slot, target, "state", state_var)

    def _reserve_slot(self, slot, target, axis, variable):
        index = len(self.graph.factors)
        factor = Factor(
            "ev/%s/%s/%s" % (slot, target, axis),
            [variable],
            variable.uniform(),
        )
        self.graph.add_factor(factor)
        self._evidence_slots[(slot, target, axis)] = (index, factor, variable)

    def _refresh_evidence(self):
        """Rewrite reserved evidence tables from the current store."""
        store = self.summary_store
        method_ref = self.pfg.method_ref
        for slot, target, node in self._boundary_slots():
            evidence = store.evidence_for(method_ref, slot, target)
            kind_table, state_table = self._evidence_tables(node, evidence)
            self._write_evidence(slot, target, "kind", kind_table)
            self._write_evidence(slot, target, "state", state_table)

    def _write_evidence(self, slot, target, axis, table):
        entry = self._evidence_slots.get((slot, target, axis))
        if entry is None:
            return
        index, factor, variable = entry
        if table is None:
            table = variable.uniform()
        if np.array_equal(factor.table, table):
            return
        factor.table = table
        self._dirty_factors[index] = factor

    def _evidence_tables(self, node, evidence):
        """Aggregated (kind, state) evidence tables; None means no votes.

        Individual site marginals are combined by geometric mean — the
        *vote direction* of many call sites is preserved (167 ALIVE sites
        outvote 3 HASNEXT sites) while the factor's overall sharpness
        stays bounded, preventing runaway feedback across worklist
        iterations.
        """
        kind_table = None
        state_table = None
        kind_votes = [m.kind for m in evidence if m.kind is not None]
        if kind_votes:
            kind_table = self._geometric_mean(self.vars.kind(node), kind_votes)
        state_votes = [m.state for m in evidence if m.state is not None]
        if state_votes:
            variable = self.vars.state(node)
            if variable is not None:
                state_votes = [
                    vote
                    for vote in state_votes
                    if len(vote) == len(variable.domain)
                ]
                if state_votes:
                    state_table = self._geometric_mean(variable, state_votes)
        return kind_table, state_table

    @staticmethod
    def _geometric_mean(variable, votes):
        logs = np.zeros(variable.cardinality)
        for vote in votes:
            vector = np.array(
                [max(vote.get(value, 0.0), 1e-6) for value in variable.domain]
            )
            logs += np.log(vector / vector.sum())
        table = np.exp(logs / len(votes))
        return table / table.sum()

    # -- solving ----------------------------------------------------------------------

    def solve(self, max_iters=40, damping=0.1, tolerance=1e-6,
              engine="compiled"):
        """SOLVE: run BP over Φ_m with the selected engine.

        ``compiled`` (default) lowers the graph once into the flat-array
        kernel and re-sweeps it, patching only the prior/evidence slots
        mutated since the last solve; ``loopy`` runs the per-message
        reference engine.  Both produce identical marginals, so when the
        kernel cannot be built or its run raises, this solve falls back
        to loopy with a ``RuntimeWarning``.
        """
        if engine == "loopy":
            return run_sum_product(
                self.graph,
                max_iters=max_iters,
                damping=damping,
                tolerance=tolerance,
            )
        if engine != "compiled":
            raise ValueError(
                "unknown engine %r (expected one of %s)"
                % (engine, ", ".join(ENGINES))
            )
        try:
            if self._compiled is None:
                self._compiled = CompiledGraph(self.graph)
            else:
                for name in sorted(self._dirty_priors):
                    self._compiled.set_prior(
                        name, self.graph.variables[name].prior
                    )
                for index in sorted(self._dirty_factors):
                    self._compiled.set_table(
                        index, self._dirty_factors[index].table
                    )
            self._dirty_priors.clear()
            self._dirty_factors.clear()
            return self._compiled.run(
                max_iters=max_iters,
                tolerance=tolerance,
                damping=damping,
            )
        except Exception as exc:
            warnings.warn(
                "compiled engine failed for %s (%s: %s); using loopy"
                % (self.graph.name, type(exc).__name__, exc),
                RuntimeWarning,
                stacklevel=2,
            )
            return run_sum_product(
                self.graph,
                max_iters=max_iters,
                damping=damping,
                tolerance=tolerance,
            )

    def boundary_marginals(self, result):
        """Extract TargetMarginals for this method's boundary nodes."""
        from repro.core.summaries import marginal_from_result

        marginals = {}
        for target, node in self.pfg.param_pre.items():
            marginals[("pre", target)] = marginal_from_result(
                result, self.vars.kind(node), self.vars.state(node)
            )
        for target, node in self.pfg.param_post.items():
            marginals[("post", target)] = marginal_from_result(
                result, self.vars.kind(node), self.vars.state(node)
            )
        if self.pfg.result_node is not None:
            node = self.pfg.result_node
            marginals[("result", "result")] = marginal_from_result(
                result, self.vars.kind(node), self.vars.state(node)
            )
        return marginals

    def callsite_marginals(self, result):
        """Marginals at call-site boundary nodes, for evidence deposits.

        Yields (callee, slot, target, site_key, TargetMarginal) for calls
        into *unannotated* program methods.
        """
        from repro.core.summaries import marginal_from_result

        for index, site in enumerate(self.pfg.call_sites):
            callee = site["callee"]
            if callee is None:
                continue
            if self.spec_env.is_annotated(callee):
                continue
            site_key = (self.pfg.method_ref, index)
            for slot, nodes in (("pre", site["pre"]), ("post", site["post"])):
                for target, node in nodes.items():
                    yield (
                        callee,
                        slot,
                        target,
                        site_key,
                        marginal_from_result(
                            result, self.vars.kind(node), self.vars.state(node)
                        ),
                    )
            if site["result"] is not None:
                node = site["result"]
                yield (
                    callee,
                    "result",
                    "result",
                    site_key,
                    marginal_from_result(
                        result, self.vars.kind(node), self.vars.state(node)
                    ),
                )


# ---------------------------------------------------------------------------
# Incremental model reuse across worklist visits
# ---------------------------------------------------------------------------


@dataclass
class ModelVisit:
    """What one worklist visit to a method's model actually did.

    A visit reaches the rest of the program only through its
    ``boundary`` marginals and its ``deposits`` (paper §3.4), so a visit
    *replayed* from the persistent cache — no graph was ever
    materialized — is indistinguishable downstream from a solved one.
    """

    #: True when constraint generation + graph construction ran.
    built: bool
    #: True when the input fingerprint matched and the solve was skipped
    #: entirely (``boundary`` and ``deposits`` are the previous solve's).
    skipped: bool
    build_seconds: float
    solve_seconds: float
    #: {(slot, target): TargetMarginal} for this method's boundary nodes.
    boundary: dict = field(default_factory=dict)
    #: [(callee, slot, target, site_key, TargetMarginal), ...] demand
    #: evidence for unannotated callees.
    deposits: list = field(default_factory=list)
    #: True when the outcome came from the persistent cache — no build,
    #: no refresh, no BP sweep.
    replayed: bool = False
    #: Factors constructed by this visit (0 unless ``built``).
    factor_count: int = 0
    #: Constraint-rule counts of this visit's build (empty unless built).
    constraint_counts: dict = field(default_factory=dict)
    #: True when the solve fell to the prior-only floor of the
    #: resilience ladder (conservative marginals, not cached).
    degraded: bool = False
    #: FailureRecords emitted by the solve guard for this visit.
    failures: list = field(default_factory=list)
    #: True when this visit solved and its outcome is now in the
    #: persistent store, so a rerun replays it instead of solving.
    stored: bool = False


class ModelCache:
    """Caches built MethodModels (plus their compiled kernels) per method.

    The paper's worklist revisits a method whenever its callee summaries
    or incoming caller evidence change; everything else about the model
    is visit-invariant.  The cache therefore:

    * builds each method's model (and compiles its kernel) exactly once;
    * on a revisit, fingerprints the store-derived inputs
      (:func:`repro.core.summaries.method_input_fingerprint`) — if the
      fingerprint is unchanged the previous visit's boundary and
      deposits are returned without touching the graph at all;
    * otherwise it ``refresh``\\ es the cached model (rewriting only the
      mutated prior/evidence slots) and re-solves.

    An entry keeps the model, the fingerprint of its last outcome and
    that outcome's boundary and deposits; no variable marginal outlives
    its visit.

    A bound persistent cache (``cache``, see
    :class:`repro.cache.manager.BoundCache`) adds a third tier: before
    solving, the visit's input fingerprint addresses a stored outcome
    from an earlier run — on a hit the boundary marginals and deposits
    are *replayed* without building or sweeping anything, and because
    each visit is a pure function of its fingerprinted inputs, a
    replayed trajectory is bit-identical to a solved one.
    """

    def __init__(self, program, config, spec_env, engine="compiled",
                 cache=None):
        self.program = program
        self.config = config
        self.spec_env = spec_env
        self.engine = engine
        self.cache = cache
        #: {method_ref: {"model", "fingerprint", "boundary", "deposits"}};
        #: ``boundary`` and ``deposits`` are read only while
        #: ``fingerprint``, None until a reusable outcome, matches.
        self._entries = {}
        #: Stable method-key memo for fault sites and failure records.
        self._site_keys = {}

    def site_key(self, method_ref):
        from repro.java.symbols import method_key

        key = self._site_keys.get(method_ref)
        if key is None:
            key = self._site_keys[method_ref] = method_key(method_ref)
        return key

    def solve(self, method_ref, pfg, summary_store, settings):
        """Run one worklist visit; returns a :class:`ModelVisit`."""
        from repro.core.summaries import method_input_fingerprint

        fingerprint = method_input_fingerprint(
            summary_store, self.spec_env, pfg
        )
        entry = self._entries.get(method_ref)
        if entry is not None and entry["fingerprint"] == fingerprint:
            return ModelVisit(
                built=False,
                skipped=True,
                build_seconds=0.0,
                solve_seconds=0.0,
                boundary=entry["boundary"],
                deposits=entry["deposits"],
            )
        solve_key = None
        if self.cache is not None:
            solve_key = self.cache.solve_key(method_ref, fingerprint)
            stored = self.cache.load_solve(solve_key)
            if stored is not None:
                boundary, deposits = stored
                # A built model stays for later refreshes.
                if entry is None:
                    entry = self._entries[method_ref] = {"model": None}
                entry.update(
                    fingerprint=fingerprint, boundary=boundary, deposits=deposits
                )
                return ModelVisit(
                    built=False,
                    skipped=False,
                    build_seconds=0.0,
                    solve_seconds=0.0,
                    boundary=boundary,
                    deposits=deposits,
                    replayed=True,
                )
        from repro.resilience.faults import maybe_fault
        from repro.resilience.guard import guarded_solve

        policy = settings.effective_policy()
        site_key = self.site_key(method_ref)
        built = entry is None or entry["model"] is None
        start = time.perf_counter()
        if built:
            # A lex/parse failure quarantines a *unit* upstream; a crash
            # here (constraint generation / graph assembly) propagates to
            # the caller, which quarantines just this *method*.
            if policy.enabled:
                maybe_fault("constraints", site_key)
            model = MethodModel(
                self.program,
                pfg,
                self.config,
                spec_env=self.spec_env,
                summary_store=summary_store,
            ).build()
            # Factor-graph ceiling: a degenerate method (giant body,
            # dense protocol use) whose graph would swamp the BP engines
            # is quarantined before any sweep runs.
            policy.limits.check(
                "max_graph_factors",
                "graph-factors",
                model.graph.factor_count + model.graph.variable_count,
                site_key,
            )
            if entry is None:
                entry = self._entries[method_ref] = {"fingerprint": None}
            entry["model"] = model
        else:
            model = entry["model"]
            model.refresh(summary_store)
        build_seconds = time.perf_counter() - start
        start = time.perf_counter()
        result, guard_record, degraded = guarded_solve(
            model, policy, site_key, self.engine
        )
        solve_seconds = time.perf_counter() - start
        boundary = model.boundary_marginals(result)
        deposits = list(model.callsite_marginals(result))
        if degraded:
            # A degraded outcome is not a pure function of the visit's
            # fingerprinted inputs (the fault may not refire) — never
            # serve it from the skip path.
            entry.update(fingerprint=None, boundary=None, deposits=None)
        else:
            entry.update(
                fingerprint=fingerprint, boundary=boundary, deposits=deposits
            )
        stored = False
        if solve_key is not None and not degraded:
            stored = self.cache.store_solve(solve_key, boundary, deposits)
        return ModelVisit(
            built=built,
            skipped=False,
            build_seconds=build_seconds,
            solve_seconds=solve_seconds,
            boundary=boundary,
            deposits=deposits,
            factor_count=model.graph.factor_count if built else 0,
            constraint_counts=dict(model.generator.counts) if built else {},
            degraded=degraded,
            failures=[guard_record] if guard_record is not None else [],
            stored=stored,
        )
