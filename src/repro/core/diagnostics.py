"""Inference diagnostics: explain *why* a spec was inferred.

``explain_method`` builds one method's PFG and probabilistic model,
solves it, and renders a report showing, per PFG node, the most likely
permission kind and abstract state with their probabilities, plus the
constraint counts and the spec the extraction step would emit.  This is
the tool a user reaches for when ANEK infers something surprising.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.extract import extract_method_spec
from repro.core.heuristics import HeuristicConfig
from repro.core.model import MethodModel
from repro.core.pfg_builder import build_pfg


@dataclass
class NodeDiagnostic:
    """The solved beliefs at one PFG node."""

    node_id: int = 0
    kind: str = ""
    label: str = ""
    best_kind: str = ""
    kind_probability: float = 0.0
    best_state: Optional[str] = None
    state_probability: float = 0.0


@dataclass
class MethodDiagnostics:
    """The full explanation for one method."""

    qualified_name: str = ""
    nodes: List[NodeDiagnostic] = field(default_factory=list)
    constraint_counts: dict = field(default_factory=dict)
    variables: int = 0
    factors: int = 0
    bp_iterations: int = 0
    bp_converged: bool = False
    spec: object = None

    def render(self):
        lines = ["Inference explanation for %s" % self.qualified_name]
        lines.append(
            "  model: %d variables, %d factors; BP %s after %d sweeps"
            % (
                self.variables,
                self.factors,
                "converged" if self.bp_converged else "stopped",
                self.bp_iterations,
            )
        )
        lines.append(
            "  constraints: "
            + ", ".join(
                "%s=%d" % (rule, count)
                for rule, count in sorted(self.constraint_counts.items())
            )
        )
        lines.append("  beliefs per PFG node:")
        for node in self.nodes:
            state_text = ""
            if node.best_state is not None:
                state_text = "  in %s (%.2f)" % (
                    node.best_state,
                    node.state_probability,
                )
            lines.append(
                "    [%2d] %-30s %-9s (%.2f)%s"
                % (
                    node.node_id,
                    node.label,
                    node.best_kind,
                    node.kind_probability,
                    state_text,
                )
            )
        lines.append("  extracted spec: %s" % self.spec)
        return "\n".join(lines)


def explain_method(program, method_ref, config=None, threshold=0.5):
    """Solve one method's model in isolation and explain the outcome:
    the method standalone, with annotated-API priors only."""
    config = config or HeuristicConfig()
    pfg = build_pfg(program, method_ref)
    model = MethodModel(program, pfg, config).build()
    result = model.solve()
    diagnostics = MethodDiagnostics(
        qualified_name=method_ref.qualified_name,
        constraint_counts=dict(model.generator.counts),
        variables=model.graph.variable_count,
        factors=model.graph.factor_count,
        bp_iterations=result.iterations,
        bp_converged=result.converged,
    )
    for node in pfg.nodes:
        kind_var = model.vars.kind(node)
        best_kind, kind_prob = result.most_likely(kind_var)
        entry = NodeDiagnostic(
            node_id=node.node_id,
            kind=node.kind,
            label=node.label,
            best_kind=best_kind,
            kind_probability=kind_prob,
        )
        state_var = model.vars.state(node)
        if state_var is not None:
            best_state, state_prob = result.most_likely(state_var)
            entry.best_state = best_state
            entry.state_probability = state_prob
        diagnostics.nodes.append(entry)
    boundary = model.boundary_marginals(result)
    diagnostics.spec = extract_method_spec(boundary, threshold)
    return diagnostics
