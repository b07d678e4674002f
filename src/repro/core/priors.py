"""Prior distributions for PFG random variables (paper §3.2).

Every PFG node carries a *kind* variable over the five permission kinds
plus ``none`` (no permission), and — for protocol classes — a *state*
variable over the class's abstract states.  Most variables start at the
uninformative prior (the paper's B(0.5) per Bernoulli, i.e. uniform in
the categorical encoding).  Known specifications strengthen priors to the
paper's B(0.9)/B(0.1) pattern: 0.9 on the specified value, the remainder
spread over the alternatives — so a wrong existing spec can still be
overridden by overwhelming evidence.
"""

from repro.permissions import kinds
from repro.permissions.spec import spec_of_method
from repro.permissions.states import ALIVE

#: The categorical kind domain (paper: five Bernoullis per node).
KIND_DOMAIN = kinds.ALL_KINDS + ("none",)


def concentrated_prior(domain, value, strength):
    """``strength`` mass on ``value``, remainder spread over the rest."""
    rest = (1.0 - strength) / (len(domain) - 1)
    prior = {candidate: rest for candidate in domain}
    prior[value] = strength
    return prior


def kind_prior_from_clause(clause, strength):
    """B(0.9)-style prior for a node covered by a spec clause."""
    return concentrated_prior(KIND_DOMAIN, clause.kind, strength)


def absent_permission_prior(strength):
    """Prior for a boundary node whose spec has no clause: permission is
    absent (nothing required / nothing returned) with high probability."""
    return concentrated_prior(KIND_DOMAIN, "none", strength)


class SpecEnvironment:
    """Resolves the declared spec (if any) governing a method.

    Mirrors the checker: an unannotated override inherits the supertype's
    spec, matching how PLURAL applies supertype specs at use sites.
    """

    def __init__(self, program):
        self.program = program
        self._cache = {}

    def spec_of(self, method_ref):
        if method_ref in self._cache:
            return self._cache[method_ref]
        spec = spec_of_method(method_ref.method_decl)
        if spec.is_empty:
            for super_decl in self.program.supertypes(method_ref.class_decl):
                for method in super_decl.find_method(method_ref.method_decl.name):
                    super_spec = spec_of_method(method)
                    if not super_spec.is_empty:
                        spec = super_spec
                        break
                if not spec.is_empty:
                    break
        self._cache[method_ref] = spec
        return spec

    def is_annotated(self, method_ref):
        """Annotated directly or through an overridden supertype method."""
        return not self.spec_of(method_ref).is_empty

    def is_directly_annotated(self, method_ref):
        """Annotated on the declaration itself (not inherited).

        Extraction keeps only *direct* annotations: for overrides that
        merely inherit a supertype spec ANEK still emits its own inferred
        spec — notably without ``@TrueIndicates`` (the paper: ANEK "does
        not attempt to infer" dynamic state test specs; the supertype
        spec takes precedence at use sites anyway).
        """
        from repro.permissions.spec import spec_of_method

        return not spec_of_method(method_ref.method_decl).is_empty


def boundary_priors(spec, target, is_pre, state_domain, strength):
    """(kind_prior, state_prior) for a pre/post boundary node from a spec.

    ``None`` spec or empty spec yields uninformative priors (both None —
    caller falls back to uniform).  An annotated method lacking a clause
    for the target gets the "permission absent" prior.
    """
    if spec is None or spec.is_empty:
        return None, None
    clauses = spec.required_for(target) if is_pre else spec.ensured_for(target)
    if not clauses:
        return absent_permission_prior(strength), None
    clause = clauses[0]
    kind_prior = kind_prior_from_clause(clause, strength)
    state_prior = None
    if state_domain is not None and clause.state in state_domain:
        state_prior = concentrated_prior(
            tuple(state_domain), clause.state, strength
        )
    elif state_domain is not None and clause.state == ALIVE:
        state_prior = concentrated_prior(tuple(state_domain), ALIVE, strength)
    return kind_prior, state_prior
