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
