"""The "Anek Logical" baseline (paper §4.2, Table 2 last row).

A traditional, non-probabilistic inference: only the logical constraints
are generated, treated as *hard* constraints, and the whole program is
solved at once (no modular summaries) by exact enumeration over the
joint assignment space — the global model of Definition 1 with
PARAMARG equality constraints binding call-site boundary nodes to callee
boundary nodes.

Exactly as in the paper, this approach fails on large programs: the
assignment space explodes, and the solver reports DNF once its memory
budget (a proxy for the paper's out-of-memory condition) is exceeded.
On conflicting constraints (buggy programs) it reports unsatisfiability
rather than producing a spec — the contrast the paper draws with ANEK.
"""

from repro.core.heuristics import HeuristicConfig
from repro.core.model import MethodModel
from repro.core.pfg_builder import build_pfg
from repro.factorgraph.exact import assignment_space_size, run_exact
from repro.factorgraph.factors import soft_equality
from repro.factorgraph.graph import FactorGraph
from repro.permissions.spec import SpecEnvironment

#: Assignment-space budget standing in for the paper's 2 GB memory limit.
DEFAULT_BUDGET = 50_000_000


class DidNotFinish(Exception):
    """Raised when the joint model exceeds the solver's budget (DNF)."""

    def __init__(self, space_size, budget):
        self.space_size = space_size
        self.budget = budget
        super().__init__(
            "joint assignment space ~1e%d exceeds budget ~1e%d (DNF)"
            % (len(str(space_size)) - 1, len(str(budget)) - 1)
        )


class LogicalInference:
    """Global, deterministic inference over hard logical constraints."""

    def __init__(self, program, budget=DEFAULT_BUDGET):
        self.program = program
        self.budget = budget
        self.config = HeuristicConfig.logical_only()
        self.spec_env = SpecEnvironment(program)

    def build_global_model(self):
        """One factor graph for the whole program (Definition 1's Φ_P)."""
        joint = FactorGraph(name="anek-logical")
        models = {}
        renamed = {}
        for method_ref in self.program.methods_with_bodies():
            pfg = build_pfg(self.program, method_ref)
            model = MethodModel(
                self.program, pfg, self.config, spec_env=self.spec_env
            ).build()
            models[method_ref] = model
            prefix = method_ref.qualified_name
            mapping = {}
            for name, variable in model.graph.variables.items():
                new_var = joint.add_variable(
                    "%s::%s" % (prefix, name), variable.domain
                )
                new_var.prior = variable.prior
                mapping[name] = new_var
            for factor in model.graph.factors:
                joint.add_factor(
                    type(factor)(
                        "%s::%s" % (prefix, factor.name),
                        [mapping[v.name] for v in factor.variables],
                        factor.table,
                    )
                )
            renamed[method_ref] = mapping
        self._add_paramarg_constraints(joint, models, renamed)
        return joint, models, renamed

    def _add_paramarg_constraints(self, joint, models, renamed):
        """PARAMARG(c): call-site boundary nodes equal callee boundary
        nodes (hard equalities)."""
        for caller_ref, model in models.items():
            caller_map = renamed[caller_ref]
            for site in model.pfg.call_sites:
                callee = site["callee"]
                if callee is None or callee not in models:
                    continue
                callee_model = models[callee]
                callee_map = renamed[callee]
                pairs = []
                for target, node in site["pre"].items():
                    peer = callee_model.pfg.param_pre.get(target)
                    if peer is not None:
                        pairs.append((node, peer))
                for target, node in site["post"].items():
                    peer = callee_model.pfg.param_post.get(target)
                    if peer is not None:
                        pairs.append((node, peer))
                if site["result"] is not None:
                    peer = callee_model.pfg.result_node
                    if peer is not None:
                        pairs.append((site["result"], peer))
                for site_node, callee_node in pairs:
                    self._equate(
                        joint,
                        caller_map,
                        callee_map,
                        model,
                        callee_model,
                        site_node,
                        callee_node,
                    )

    @staticmethod
    def _equate(joint, caller_map, callee_map, caller_model, callee_model,
                site_node, callee_node):
        site_kind = caller_map["n%d.kind" % site_node.node_id]
        callee_kind = callee_map["n%d.kind" % callee_node.node_id]
        joint.add_factor(
            soft_equality(
                "paramarg/%s=%s" % (site_kind.name, callee_kind.name),
                site_kind,
                callee_kind,
                0.999999,
            )
        )
        site_state = caller_model.vars.state(site_node)
        callee_state = callee_model.vars.state(callee_node)
        if (
            site_state is not None
            and callee_state is not None
            and site_state.domain == callee_state.domain
        ):
            site_var = caller_map[site_state.name]
            callee_var = callee_map[callee_state.name]
            joint.add_factor(
                soft_equality(
                    "paramarg/%s=%s" % (site_var.name, callee_var.name),
                    site_var,
                    callee_var,
                    0.999999,
                )
            )

    def run(self, early_stop=True):
        """Solve exactly; raises DidNotFinish on budget blowout.

        With ``early_stop`` the assignment space is accumulated method by
        method (from PFG sizes alone) and the run aborts as soon as the
        budget is exceeded — mirroring how the paper's logical solver ran
        out of memory *before* reaching a fixpoint.
        """
        if early_stop:
            space = self.space_size(stop_at=self.budget)
            if space > self.budget:
                raise DidNotFinish(space, self.budget)
        joint, _, _ = self.build_global_model()
        space = assignment_space_size(joint)
        if space > self.budget:
            raise DidNotFinish(space, self.budget)
        result = run_exact(joint, budget=self.budget)
        return result, joint

    def space_size(self, stop_at=None):
        """The joint assignment-space size (without building factors).

        ``stop_at`` short-circuits once the accumulated space exceeds it.
        """
        from repro.core.model import NodeVariables
        from repro.factorgraph.graph import FactorGraph

        space = 1
        for method_ref in self.program.methods_with_bodies():
            pfg = build_pfg(self.program, method_ref)
            scratch = FactorGraph()
            namer = NodeVariables(scratch, self.program)
            for node in pfg.nodes:
                space *= namer.kind(node).cardinality
                state = namer.state(node)
                if state is not None:
                    space *= state.cardinality
            if stop_at is not None and space > stop_at:
                return space
        return space
